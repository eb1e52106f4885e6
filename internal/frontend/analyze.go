package frontend

import (
	"fmt"
	"sort"
	"strings"

	"whilepar/internal/distribute"
	"whilepar/internal/loopir"
)

// StmtInfo is the analysis of one assignment.
type StmtInfo struct {
	Line    int
	LHS     string
	Kind    distribute.StmtKind
	SelfDep bool
	// Refs are the variables/arrays the statement reads.
	Refs []string
	// Induction step (meaningful when Kind == InductionRec).
	Step float64
	// Affine coefficients (meaningful when Kind == AssociativeRec).
	A, B float64
}

// CondInfo is the analysis of one termination condition.
type CondInfo struct {
	// Source renders the condition; FromExit marks in-body `if..exit`.
	Source   string
	FromExit bool
	// Kind is RI or RV.
	Kind loopir.TerminatorKind
	// Threshold marks a comparison of a monotonic induction against a
	// loop-invariant bound (the no-overshoot exception).
	Threshold bool
}

// Analysis is the front end's result.
type Analysis struct {
	Stmts []StmtInfo
	Conds []CondInfo
	// Class is the loop's Table 1 cell (dispatcher = the hierarchically
	// top-level recurrence).
	Class loopir.Class
	// DispatcherVar names the dispatcher's variable ("" if the loop has
	// no explicit recurrence — a pure DOALL candidate).
	DispatcherVar string
	// Unknown lists arrays whose access patterns need the PD test.
	Unknown []string
	// Graph is the statement dependence graph for the Section 6 planner.
	Graph *distribute.Graph
}

// Analyze classifies a parsed loop.
func Analyze(ast *LoopAST) (*Analysis, error) {
	an := &Analysis{}

	// Pass 1: per-statement classification.
	assigned := map[string]bool{}   // every LHS base
	recurrence := map[string]bool{} // LHS of self-dependent scalars
	unknownSet := map[string]bool{}
	for _, st := range ast.Body {
		a, ok := st.(Assign)
		if !ok {
			continue
		}
		assigned[a.LHS] = true
	}
	for _, st := range ast.Body {
		a, ok := st.(Assign)
		if !ok {
			continue
		}
		refs := map[string]bool{}
		vars(a.RHS, refs)
		if a.Sub != nil {
			vars(a.Sub, refs)
		}
		info := StmtInfo{Line: a.Line, LHS: a.LHS, SelfDep: refs[a.LHS], Refs: sortedKeys(refs)}

		unanalyzable := hasNestedIndex(a.RHS, false) ||
			(a.Sub != nil && containsIndex(a.Sub))
		switch {
		case unanalyzable:
			info.Kind = distribute.Unknown
			unknownSet[a.LHS] = true
		case a.Sub == nil && info.SelfDep:
			if aa, bb, ok := affineOf(a.RHS, a.LHS); ok {
				if aa == 1 {
					info.Kind = distribute.InductionRec
					info.Step = bb
				} else {
					info.Kind = distribute.AssociativeRec
					info.A, info.B = aa, bb
				}
				recurrence[a.LHS] = true
			} else {
				info.Kind = distribute.GeneralRec
				recurrence[a.LHS] = true
			}
		default:
			info.Kind = distribute.Plain
		}
		an.Stmts = append(an.Stmts, info)
	}

	// Doubt goes to Tested: an array the loop both writes and reads, by
	// any subscript, may carry a cross-iteration dependence no pass
	// here rules out, so the PD test decides.
	reads := map[string]bool{}
	if ast.Cond != nil {
		vars(ast.Cond, reads)
	}
	for _, st := range ast.Body {
		switch t := st.(type) {
		case Assign:
			vars(t.RHS, reads)
			if t.Sub != nil {
				vars(t.Sub, reads)
			}
		case ExitIf:
			vars(t.Cond, reads)
		}
	}
	for _, st := range ast.Body {
		if a, ok := st.(Assign); ok && a.Sub != nil && reads[a.LHS] {
			unknownSet[a.LHS] = true
		}
	}

	// Pass 2: termination conditions (loop header + in-body exits).
	// A condition is remainder invariant iff every variable it reads is
	// a recurrence variable or never assigned in the body.
	classifyCond := func(e Expr, fromExit bool) CondInfo {
		refs := map[string]bool{}
		vars(e, refs)
		kind := loopir.RI
		for v := range refs {
			if assigned[v] && !recurrence[v] {
				kind = loopir.RV
				break
			}
		}
		ci := CondInfo{Source: e.String(), FromExit: fromExit, Kind: kind}
		if kind == loopir.RI {
			ci.Threshold = isMonotonicThreshold(e, an)
		}
		return ci
	}
	if ast.Cond != nil {
		for _, c := range splitAnd(ast.Cond) {
			an.Conds = append(an.Conds, classifyCond(c, false))
		}
	}
	for _, st := range ast.Body {
		if ex, ok := st.(ExitIf); ok {
			an.Conds = append(an.Conds, classifyCond(ex.Cond, true))
		}
	}

	// Pass 3: the dependence graph for the planner.
	g := buildGraph(an)
	an.Graph = g

	// Pass 4: the Table 1 cell.  Among the loop's recurrences the
	// dispatcher is the most constrained (most sequential) one — a
	// general recurrence dominates an associative one dominates an
	// induction — because it is the recurrence that bounds the available
	// parallelism and drives the strategy choice.  With no recurrence at
	// all, the implicit loop counter (an induction) controls the loop.
	an.Class = loopir.Class{Dispatcher: loopir.MonotonicInduction}
	blocks := distribute.Distribute(g)
	best := -1
	for _, b := range blocks {
		if k := recurrenceKindOf(b, an); k > best {
			best = k
			an.Class.Dispatcher = loopir.DispatcherKind(k)
			an.DispatcherVar = b.Stmts[0].Name
		}
	}
	an.Class.Terminator = loopir.RI
	allThreshold := len(an.Conds) > 0
	for _, c := range an.Conds {
		if c.Kind == loopir.RV {
			an.Class.Terminator = loopir.RV
		}
		if !c.Threshold {
			allThreshold = false
		}
	}
	if an.Class.Dispatcher == loopir.MonotonicInduction && an.Class.Terminator == loopir.RI && allThreshold {
		an.Class.ThresholdOnMonotonic = true
	}
	an.Unknown = sortedKeys(unknownSet)
	return an, nil
}

// recurrenceKindOf returns the loopir dispatcher kind of a block's lead
// recurrence, or -1 if the block holds no recurrence.
func recurrenceKindOf(b distribute.Block, an *Analysis) int {
	for _, s := range b.Stmts {
		for _, info := range an.Stmts {
			if info.Line != s.ID {
				continue
			}
			switch info.Kind {
			case distribute.InductionRec:
				if info.Step != 0 {
					return int(loopir.MonotonicInduction)
				}
				return int(loopir.NonMonotonicInduction)
			case distribute.AssociativeRec:
				return int(loopir.AssociativeRecurrence)
			case distribute.GeneralRec:
				return int(loopir.GeneralRecurrence)
			}
		}
	}
	return -1
}

// buildGraph translates the analyzed statements into the planner's IR:
// statement B depends on statement A if B reads A's target (flow) or
// assigns the same target (output); self-dependences become self-loops.
func buildGraph(an *Analysis) *distribute.Graph {
	var nodes []*distribute.Stmt
	for _, info := range an.Stmts {
		kind := info.Kind
		nodes = append(nodes, &distribute.Stmt{
			ID:      info.Line,
			Name:    info.LHS,
			Kind:    kind,
			SelfDep: info.SelfDep,
			Cost:    1,
		})
	}
	g := distribute.NewGraph(nodes...)
	for _, b := range an.Stmts {
		for _, a := range an.Stmts {
			if a.Line == b.Line {
				if a.SelfDep {
					g.AddDep(a.Line, a.Line)
				}
				continue
			}
			for _, r := range b.Refs {
				if r == a.LHS {
					g.AddDep(a.Line, b.Line)
				}
			}
			if a.LHS == b.LHS && a.Line < b.Line {
				g.AddDep(a.Line, b.Line) // output dependence: keep order
			}
		}
	}
	return g
}

// affineOf interprets e as a*x + b with numeric coefficients, returning
// ok=false for anything else (calls, other variables, division by x).
func affineOf(e Expr, x string) (a, b float64, ok bool) {
	switch t := e.(type) {
	case Num:
		return 0, t.Val, true
	case Var:
		if t.Name == x {
			return 1, 0, true
		}
		return 0, 0, false // a foreign variable: not provably affine
	case Binary:
		la, lb, lok := affineOf(t.L, x)
		ra, rb, rok := affineOf(t.R, x)
		switch t.Op {
		case "+":
			if lok && rok {
				return la + ra, lb + rb, true
			}
		case "-":
			if lok && rok {
				return la - ra, lb - rb, true
			}
		case "*":
			if lok && rok {
				// Only linear products are affine.
				if la == 0 {
					return lb * ra, lb * rb, true
				}
				if ra == 0 {
					return la * rb, lb * rb, true
				}
			}
		case "/":
			if lok && rok && ra == 0 && rb != 0 {
				return la / rb, lb / rb, true
			}
		}
	}
	return 0, 0, false
}

// isMonotonicThreshold reports whether e compares a monotonic-induction
// variable (or a pure call on one... no: strictly the variable itself)
// against a loop-invariant bound.
func isMonotonicThreshold(e Expr, an *Analysis) bool {
	b, ok := e.(Binary)
	if !ok {
		return false
	}
	switch b.Op {
	case "<", ">", "<=", ">=":
	default:
		return false
	}
	isMonoVar := func(x Expr) bool {
		v, ok := x.(Var)
		if !ok {
			return false
		}
		for _, info := range an.Stmts {
			if info.LHS == v.Name && info.Kind == distribute.InductionRec && info.Step != 0 {
				return true
			}
		}
		return false
	}
	isConst := func(x Expr) bool {
		switch t := x.(type) {
		case Num:
			return true
		case Var:
			for _, info := range an.Stmts {
				if info.LHS == t.Name {
					return false
				}
			}
			return true // never assigned: loop invariant
		}
		return false
	}
	return (isMonoVar(b.L) && isConst(b.R)) || (isMonoVar(b.R) && isConst(b.L))
}

// splitAnd flattens a && chain into its conjuncts.
func splitAnd(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "&&" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func containsIndex(e Expr) bool {
	switch t := e.(type) {
	case Index:
		return true
	case Call:
		for _, a := range t.Args {
			if containsIndex(a) {
				return true
			}
		}
	case Binary:
		return containsIndex(t.L) || containsIndex(t.R)
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Report renders the analysis the way cmd/whileclass presents it.
func (an *Analysis) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "classification: %v\n", an.Class)
	fmt.Fprintf(&b, "  dispatcher:   %v", an.Class.Dispatcher)
	if an.DispatcherVar != "" {
		fmt.Fprintf(&b, " (variable %q)", an.DispatcherVar)
	} else {
		fmt.Fprintf(&b, " (implicit loop counter)")
	}
	fmt.Fprintf(&b, "; evaluation: %v\n", an.Class.DispatcherParallelism())
	fmt.Fprintf(&b, "  terminator:   %v; overshoot possible: %v\n", an.Class.Terminator, an.Class.CanOvershoot())
	for _, c := range an.Conds {
		src := "header"
		if c.FromExit {
			src = "in-body exit"
		}
		extra := ""
		if c.Threshold {
			extra = " [monotonic threshold]"
		}
		fmt.Fprintf(&b, "    %-12s %s: %v%s\n", src, c.Source, c.Kind, extra)
	}
	if len(an.Unknown) > 0 {
		fmt.Fprintf(&b, "  PD test needed for: %s\n", strings.Join(an.Unknown, ", "))
	}
	fmt.Fprintf(&b, "  statements:\n")
	for _, s := range an.Stmts {
		self := ""
		if s.SelfDep {
			self = " (self-dependent)"
		}
		fmt.Fprintf(&b, "    #%d %s = ...: %v%s\n", s.Line, s.LHS, s.Kind, self)
	}
	plan := distribute.Plan(an.Graph, distribute.FuseOptions{Doacross: true})
	fmt.Fprintf(&b, "  distribution plan (%d blocks):\n", len(plan))
	for i, blk := range plan {
		names := make([]string, len(blk.Stmts))
		for j, s := range blk.Stmts {
			names[j] = fmt.Sprintf("#%d %s", s.ID, s.Name)
		}
		da := ""
		if blk.Doacross {
			da = " [doacross vs successor]"
		}
		fmt.Fprintf(&b, "    block %d: %v {%s}%s\n", i+1, blk.Kind, strings.Join(names, ", "), da)
	}
	return b.String()
}
