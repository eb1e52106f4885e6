package frontend

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"whilepar/internal/core"
	"whilepar/internal/distribute"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
)

// The interpreter closes the loop (so to speak) on the front end: a
// parsed and analyzed WHILE-loop description becomes an executable body
// that runs through the same orchestration path (internal/core) as
// hand-written loops — including speculation, the PD test and undo when
// the analysis says they are needed.
//
// Runnable subset: the dispatcher must be the loop's only recurrence and
// must be an induction (closed form; the associative and general cases
// would need value recognition the text form does not provide).  All
// other scalars assigned in the body are iteration-local temporaries
// (privatized by construction).  Arrays live in an Env and are accessed
// through the iteration tracker, so the run-time machinery sees every
// access.

// Env binds the loop's free names: arrays, loop-invariant scalars, and
// opaque functions.  A function's args slice is the interpreter's
// scratch and is valid only for the duration of the call.
type Env struct {
	Arrays  map[string]*mem.Array
	Scalars map[string]float64
	Funcs   map[string]func(args []float64) float64
}

// NewEnv returns an Env preloaded with a few standard functions.
func NewEnv() *Env {
	return &Env{
		Arrays:  map[string]*mem.Array{},
		Scalars: map[string]float64{},
		Funcs: map[string]func([]float64) float64{
			"abs":  func(a []float64) float64 { return math.Abs(arg(a, 0)) },
			"sqrt": func(a []float64) float64 { return math.Sqrt(arg(a, 0)) },
			"min":  func(a []float64) float64 { return math.Min(arg(a, 0), arg(a, 1)) },
			"max":  func(a []float64) float64 { return math.Max(arg(a, 0), arg(a, 1)) },
		},
	}
}

func arg(a []float64, i int) float64 {
	if i < len(a) {
		return a[i]
	}
	return 0
}

// Program is a compiled, runnable loop description.
type Program struct {
	an   *Analysis
	ast  *LoopAST
	env  *Env
	disp loopir.IntInduction
	// dispVar is the induction variable ("" for the implicit counter).
	dispVar string
	max     int
}

// Compile checks that the analyzed loop falls in the runnable subset and
// binds it to an environment.  maxIter bounds the iteration space (the
// DOALL's u).
func Compile(ast *LoopAST, an *Analysis, env *Env, maxIter int) (*Program, error) {
	if maxIter < 1 {
		return nil, fmt.Errorf("frontend: maxIter must be positive")
	}
	p := &Program{an: an, ast: ast, env: env, max: maxIter, disp: loopir.IntInduction{C: 1}}
	for _, s := range an.Stmts {
		switch s.Kind {
		case distribute.InductionRec:
			if p.dispVar != "" {
				return nil, fmt.Errorf("frontend: multiple inductions (%q, %q); not in the runnable subset", p.dispVar, s.LHS)
			}
			p.dispVar = s.LHS
			start := env.Scalars[s.LHS] // initial value from the env (default 0)
			p.disp = loopir.IntInduction{C: int(s.Step), B: int(start)}
			if float64(int(s.Step)) != s.Step {
				return nil, fmt.Errorf("frontend: non-integer induction step %v", s.Step)
			}
		case distribute.AssociativeRec, distribute.GeneralRec:
			return nil, fmt.Errorf("frontend: recurrence %q (%v) is outside the runnable subset", s.LHS, s.Kind)
		}
	}
	if err := checkLocalsAssignedFirst(ast, an); err != nil {
		return nil, err
	}
	return p, nil
}

// checkLocalsAssignedFirst enforces the scalar rule: a scalar the body
// assigns, other than a recurrence, is iteration-local — each iteration
// starts without it and it is not visible after the loop — so a read
// of it before its first assignment in body order (header condition
// first, then each statement's value, subscript and exit condition)
// would see the previous iteration's value in a sequential loop and
// nothing of it here.  Such a program is rejected, naming the scalar.
func checkLocalsAssignedFirst(ast *LoopAST, an *Analysis) error {
	local := map[string]bool{}
	for _, st := range ast.Body {
		if a, ok := st.(Assign); ok && a.Sub == nil {
			local[a.LHS] = true
		}
	}
	for _, s := range an.Stmts {
		if s.Kind != distribute.Plain && s.Kind != distribute.Unknown {
			delete(local, s.LHS)
		}
	}
	assigned := map[string]bool{}
	check := func(exprs ...Expr) error {
		refs := map[string]bool{}
		for _, e := range exprs {
			if e != nil {
				vars(e, refs)
			}
		}
		for _, v := range sortedKeys(refs) {
			if local[v] && !assigned[v] {
				return fmt.Errorf("frontend: scalar %q is read before the loop body assigns it; "+
					"body-assigned scalars are iteration-local", v)
			}
		}
		return nil
	}
	if err := check(ast.Cond); err != nil {
		return err
	}
	for _, st := range ast.Body {
		var err error
		switch t := st.(type) {
		case Assign:
			if err = check(t.RHS, t.Sub); err == nil && t.Sub == nil {
				assigned[t.LHS] = true
			}
		case ExitIf:
			err = check(t.Cond)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// evalCtx is one worker's interpretation state, re-armed per iteration
// (begin) so that interpreting an iteration allocates nothing.
type evalCtx struct {
	p      *Program
	it     *loopir.Iter
	locals map[string]float64 // iteration-local temporaries (privatized)
	d      int                // dispatcher value this iteration
	err    error
	// args is the call-argument stack: a call evaluates its arguments
	// onto the top and pops them when the function returns, so nested
	// calls share one buffer.
	args []float64
	// Keeps neighbouring workers' contexts (see evalCtxs) off one
	// another's cache lines.
	_ [64]byte
}

func newEvalCtx(p *Program) *evalCtx {
	return &evalCtx{p: p, locals: map[string]float64{}}
}

// begin re-arms the context for one iteration.
func (c *evalCtx) begin(it *loopir.Iter, d int) {
	c.it, c.d, c.err = it, d, nil
	clear(c.locals)
	c.args = c.args[:0]
}

// evalCtxs holds one evalCtx per virtual processor, indexed by
// Iter.VPN: iterations on one processor run one after another, so each
// context has a single user at a time.
type evalCtxs []*evalCtx

func newEvalCtxs(p *Program, procs int) evalCtxs {
	cs := make(evalCtxs, procs)
	for k := range cs {
		cs[k] = newEvalCtx(p)
	}
	return cs
}

// at returns processor vpn's context; a processor number beyond the
// table (no engine issues one) gets a context of its own rather than
// someone else's.
func (cs evalCtxs) at(p *Program, vpn int) *evalCtx {
	if vpn >= 0 && vpn < len(cs) {
		return cs[vpn]
	}
	return newEvalCtx(p)
}

func (c *evalCtx) fail(format string, args ...any) float64 {
	if c.err == nil {
		c.err = fmt.Errorf("frontend: "+format, args...)
	}
	return 0
}

func (c *evalCtx) eval(e Expr) float64 {
	switch t := e.(type) {
	case Num:
		return t.Val
	case Var:
		switch t.Name {
		case "nil", "false":
			return 0
		case "true":
			return 1
		}
		if t.Name == c.p.dispVar {
			return float64(c.d)
		}
		if v, ok := c.locals[t.Name]; ok {
			return v
		}
		if v, ok := c.p.env.Scalars[t.Name]; ok {
			return v
		}
		return c.fail("unbound variable %q", t.Name)
	case Index:
		a, ok := c.p.env.Arrays[t.Base]
		if !ok {
			return c.fail("unbound array %q", t.Base)
		}
		idx := int(c.eval(t.Sub))
		if c.err != nil {
			return 0
		}
		if idx < 0 || idx >= a.Len() {
			return c.fail("index %d out of range for %q", idx, t.Base)
		}
		return c.it.Load(a, idx)
	case Call:
		f, ok := c.p.env.Funcs[t.Fn]
		if !ok {
			return c.fail("unbound function %q", t.Fn)
		}
		base := len(c.args)
		for _, aexpr := range t.Args {
			v := c.eval(aexpr) // may push and pop nested calls' arguments
			c.args = append(c.args, v)
		}
		var v float64
		if c.err == nil {
			v = f(c.args[base:])
		}
		c.args = c.args[:base]
		return v
	case Binary:
		l := c.eval(t.L)
		// Short-circuit forms.
		switch t.Op {
		case "&&":
			if l == 0 {
				return 0
			}
			return boolVal(c.eval(t.R) != 0)
		case "||":
			if l != 0 {
				return 1
			}
			return boolVal(c.eval(t.R) != 0)
		}
		r := c.eval(t.R)
		switch t.Op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			return l / r
		case "<":
			return boolVal(l < r)
		case ">":
			return boolVal(l > r)
		case "<=":
			return boolVal(l <= r)
		case ">=":
			return boolVal(l >= r)
		case "==":
			return boolVal(l == r)
		case "!=":
			return boolVal(l != r)
		}
		return c.fail("unknown operator %q", t.Op)
	}
	return c.fail("unknown expression")
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// iteration runs one interpreted iteration in context c: header
// condition, body statements, in-body exits.  Returns false on a
// termination condition.
func (p *Program) iteration(c *evalCtx, it *loopir.Iter, d int) (bool, error) {
	c.begin(it, d)
	if p.ast.Cond != nil && c.eval(p.ast.Cond) == 0 {
		return false, c.err
	}
	for _, st := range p.ast.Body {
		if c.err != nil {
			return false, c.err
		}
		switch t := st.(type) {
		case ExitIf:
			if c.eval(t.Cond) != 0 {
				return false, c.err
			}
		case Assign:
			if t.LHS == p.dispVar && t.Sub == nil {
				continue // the induction: handled by the closed form
			}
			v := c.eval(t.RHS)
			if c.err != nil {
				return false, c.err
			}
			if t.Sub == nil {
				c.locals[t.LHS] = v
				continue
			}
			a, ok := p.env.Arrays[t.LHS]
			if !ok {
				return false, fmt.Errorf("frontend: unbound array %q", t.LHS)
			}
			idx := int(c.eval(t.Sub))
			if c.err != nil {
				return false, c.err
			}
			if idx < 0 || idx >= a.Len() {
				return false, fmt.Errorf("frontend: index %d out of range for %q", idx, t.LHS)
			}
			it.Store(a, idx, v)
		}
	}
	return true, c.err
}

// RunSequential interprets the loop sequentially (the oracle).  It
// returns the number of valid iterations.
func (p *Program) RunSequential() (int, error) {
	c, slot := newEvalCtx(p), loopir.NewIterSlots(1)
	for i := 0; i < p.max; i++ {
		ok, err := p.iteration(c, slot.At(0, i, nil), p.disp.At(i))
		if err != nil {
			return i, err
		}
		if !ok {
			return i, nil
		}
	}
	return p.max, nil
}

// Run executes the program through the orchestrator with default
// Options; it is RunContext under context.Background().
func (p *Program) Run(procs int) (core.Report, error) {
	return p.RunContext(context.Background(), core.Options{Procs: procs})
}

// RunContext executes the program through the orchestrator under ctx
// with caller-supplied Options — the entry point services use to carry
// deadlines, strategies, metrics and a shared worker pool into
// interpreted programs.  The analysis-derived annotations are merged
// into opt: every array the loop writes is added to Shared, and every
// array the analysis flagged unanalyzable is added to Tested (PD), so
// core applies the speculation protocol the program needs regardless
// of what the caller set.
func (p *Program) RunContext(ctx context.Context, opt core.Options) (core.Report, error) {
	var (
		errMu    sync.Mutex
		firstErr error
	)
	procs := opt.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	ctxs := newEvalCtxs(p, procs)
	loop := &loopir.Loop[int]{
		Class: p.an.Class,
		Disp:  p.disp,
		Body: func(it *loopir.Iter, d int) bool {
			ok, err := p.iteration(ctxs.at(p, it.VPN), it, d)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return false
			}
			return ok
		},
		Max: p.max,
	}
	written := map[string]bool{}
	for _, st := range p.ast.Body {
		if a, ok := st.(Assign); ok && a.Sub != nil {
			written[a.LHS] = true
		}
	}
	has := func(list []*mem.Array, arr *mem.Array) bool {
		for _, x := range list {
			if x == arr {
				return true
			}
		}
		return false
	}
	for name := range written {
		if arr, ok := p.env.Arrays[name]; ok && !has(opt.Shared, arr) {
			opt.Shared = append(opt.Shared, arr)
		}
	}
	for _, name := range p.an.Unknown {
		if arr, ok := p.env.Arrays[name]; ok && !has(opt.Tested, arr) {
			opt.Tested = append(opt.Tested, arr)
		}
	}
	rep, err := core.RunInductionCtx(ctx, loop, opt)
	if err == nil {
		errMu.Lock()
		err = firstErr
		errMu.Unlock()
	}
	return rep, err
}

// AutoEnv builds a demonstration environment for a parsed loop: every
// referenced array is created with n elements of deterministic
// pseudo-random data, every unassigned scalar defaults to n (so bounds
// like `i < n` work out of the box), and the standard builtins are
// available.  It is what cmd/whileclass -run uses.
func AutoEnv(ast *LoopAST, n int) *Env {
	env := NewEnv()
	arrays := map[string]bool{}
	scalars := map[string]bool{}
	assigned := map[string]bool{}
	funcs := map[string]bool{}
	var scan func(e Expr)
	scan = func(e Expr) {
		switch t := e.(type) {
		case Index:
			arrays[t.Base] = true
			scan(t.Sub)
		case Var:
			if t.Name != "nil" && t.Name != "true" && t.Name != "false" {
				scalars[t.Name] = true
			}
		case Call:
			funcs[t.Fn] = true
			for _, a := range t.Args {
				scan(a)
			}
		case Binary:
			scan(t.L)
			scan(t.R)
		}
	}
	if ast.Cond != nil {
		scan(ast.Cond)
	}
	for _, st := range ast.Body {
		switch t := st.(type) {
		case Assign:
			if t.Sub != nil {
				arrays[t.LHS] = true
				scan(t.Sub)
			} else {
				assigned[t.LHS] = true
			}
			scan(t.RHS)
		case ExitIf:
			scan(t.Cond)
		}
	}
	seed := uint64(0x9e3779b97f4a7c15)
	rnd := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64((seed>>11)%1000) / 100
	}
	for name := range arrays {
		a := mem.NewArray(name, n)
		for i := range a.Data {
			a.Data[i] = rnd()
		}
		env.Arrays[name] = a
	}
	for name := range scalars {
		if !arrays[name] && !assigned[name] {
			env.Scalars[name] = float64(n)
		}
	}
	// Unknown functions become deterministic pure stand-ins: a smooth
	// hash of the arguments, distinct per function name.
	for name := range funcs {
		if _, ok := env.Funcs[name]; ok {
			continue
		}
		var h uint64 = 14695981039346656037
		for _, c := range []byte(name) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		phase := float64(h%997) / 997
		env.Funcs[name] = func(args []float64) float64 {
			s := phase
			for k, a := range args {
				s += a * float64(k+1) * 0.618
			}
			return s - math.Floor(s) // in [0,1): bounded, deterministic
		}
	}
	return env
}
