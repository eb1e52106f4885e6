package whilepar

// Allocation-regression guard for the per-iteration cost budget (see
// DESIGN.md): on every engine path the number of heap allocations of a
// run may depend on the processor count, the strip count and pool
// warmth, but not on the trip count.  Each path runs at N and at 8N
// iterations under testing.AllocsPerRun; one allocation per iteration —
// an Iter built on an engine's stack and handed to the body escapes,
// because a body is a func value — would show as 7N extra.

import (
	"context"
	"testing"

	"whilepar/internal/frontend"
	"whilepar/internal/pdtest"
	"whilepar/internal/tsmem"
)

const (
	allocN = 2048
	// allocSlack is what the 8N run may allocate beyond the N run:
	// growth steps of append-only journals and logs (logarithmic in N),
	// a few more strips, a pool the collector emptied mid-measurement.
	// One allocation per iteration would be 7*allocN = 14336.
	allocSlack = 192
)

// The builders below set a loop of n iterations up once and return one
// run of it under opt; a run resets the state it needs itself.

// rvInt is A[i] = f(A[i]) with a remainder-variant exit at 7n/8: the
// clean speculative loop (Shared + Tested).
func rvInt(t *testing.T, n int, opt Options) func() {
	return rvIntUnder(context.Background(), t, n, opt)
}

// rvIntCancellable is rvInt under a context that can be canceled (and
// never is): the engines' stop-flag plumbing is armed.
func rvIntCancellable(t *testing.T, n int, opt Options) func() {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return rvIntUnder(ctx, t, n, opt)
}

func rvIntUnder(ctx context.Context, t *testing.T, n int, opt Options) func() {
	a := NewArray("A", n)
	exit := n * 7 / 8
	l := &IntLoop{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
		Disp:  IntInduction{C: 1},
		Body: func(it *Iter, d int) bool {
			v := it.Load(a, d)
			if v < 0 {
				return false
			}
			it.Store(a, d, 0.5*v+1)
			return true
		},
		Max: n,
	}
	opt.Shared, opt.Tested = []*Array{a}, []*Array{a}
	return func() {
		for i := range a.Data {
			a.Data[i] = 1
		}
		a.Data[exit] = -1
		rep, err := RunContext(ctx, l, opt)
		if err != nil || rep.Valid != exit {
			t.Fatalf("valid = %d, err = %v; want %d", rep.Valid, err, exit)
		}
	}
}

// riInt is the independent loop out[i] = f(i) with a threshold exit:
// no speculation, only the DOALL substrate.
func riInt(t *testing.T, n int, opt Options) func() {
	out := NewArray("out", n)
	l := &IntLoop{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RI, ThresholdOnMonotonic: true},
		Disp:  IntInduction{C: 1},
		Cond:  func(d int) bool { return d < n-3 },
		Body: func(it *Iter, d int) bool {
			it.Store(out, d, float64(d))
			return true
		},
		Max: n,
	}
	return func() {
		rep, err := Run(l, opt)
		if err != nil || rep.Valid != n-3 {
			t.Fatalf("valid = %d, err = %v; want %d", rep.Valid, err, n-3)
		}
	}
}

func listWalk(t *testing.T, n int, opt Options) func() {
	head := BuildList(n, nil)
	out := NewArray("out", n)
	l := ListLoop{Head: head, Class: Class{Dispatcher: GeneralRecurrence, Terminator: RI},
		Body: func(it *Iter, nd *Node) bool {
			it.Store(out, nd.Key, float64(nd.Key))
			return true
		}}
	return func() {
		rep, err := Run(l, opt)
		if err != nil || rep.Valid != n {
			t.Fatalf("valid = %d, err = %v; want %d", rep.Valid, err, n)
		}
	}
}

func associative(t *testing.T, n int, opt Options) func() {
	out := NewArray("out", n)
	l := &FloatLoop{
		Class: Class{Dispatcher: AssociativeRecurrence, Terminator: RI},
		Disp:  Affine{A: 1, B: 1, X0: 0},
		Body: func(it *Iter, x float64) bool {
			it.Store(out, it.Index, x)
			return true
		},
		Max: n,
	}
	return func() {
		rep, err := Run(l, opt)
		if err != nil || rep.Valid != n {
			t.Fatalf("valid = %d, err = %v; want %d", rep.Valid, err, n)
		}
	}
}

func whileProgram(t *testing.T, n int, opt Options) func() {
	ast, err := frontend.Parse(`
		while (i < n) {
			t = max(a[i], 0.5) * 2
			b[i] = t + sqrt(a[i])
			i = i + 1
		}`)
	if err != nil {
		t.Fatal(err)
	}
	an, err := frontend.Analyze(ast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := frontend.Compile(ast, an, frontend.AutoEnv(ast, n), n)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		rep, err := prog.RunContext(context.Background(), opt)
		if err != nil || rep.Valid != n {
			t.Fatalf("valid = %d, err = %v; want %d", rep.Valid, err, n)
		}
	}
}

func TestAllocationsDoNotGrowWithTripCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	type path struct {
		name  string
		build func(t *testing.T, n int, opt Options) func()
		opt   Options
	}
	// The package's TestMain switches the planner's clock off, so the
	// auto rows reach the engines they are named for; the light-body row
	// prices its store so that nothing pays, and runs probe + sequential.
	auto := func(key string) Options { return Options{Procs: 2, Profiles: NewProfileStore(), Key: key} }
	priced := auto("alloc-light")
	priced.Profiles.SetTable(prohibitiveTable())
	pinned := func(s Strategy) Options { return Options{Procs: 2, Strategy: s, Validation: ValidationFull} }
	// With a Metrics attached the per-worker counts are sized once per
	// run, by the worker count: the trip count must not show either.
	metered := pinned(StrategySpeculate)
	metered.Metrics = NewMetrics()
	paths := []path{
		{"sequential", rvInt, Options{Strategy: StrategySequential}},
		{"sequential cancellable", rvIntCancellable, Options{Strategy: StrategySequential}},
		{"speculate", rvInt, pinned(StrategySpeculate)},
		{"speculate with metrics", rvInt, metered},
		{"recover", rvInt, pinned(StrategyRecover)},
		{"pipeline", rvInt, pinned(StrategyPipeline)},
		{"auto speculative", rvInt, auto("alloc-spec")},
		{"auto light body", rvInt, priced},
		{"auto light body cancellable", rvIntCancellable, priced},
		{"auto doall", riInt, auto("alloc-doall")},
		{"doall dynamic", riInt, Options{Procs: 2, Strategy: StrategySpeculate, Schedule: Dynamic}},
		{"doall static", riInt, Options{Procs: 2, Strategy: StrategySpeculate, Schedule: Static}},
		{"doall guided", riInt, Options{Procs: 2, Strategy: StrategySpeculate, Schedule: Guided}},
		{"doall stealing", riInt, Options{Procs: 2, Strategy: StrategySpeculate, Schedule: Stealing}},
		{"list sequential", listWalk, Options{Strategy: StrategySequential}},
		{"list General-1", listWalk, Options{Procs: 2, ListMethod: General1}},
		{"list General-2", listWalk, Options{Procs: 2, ListMethod: General2}},
		{"list General-3", listWalk, Options{Procs: 2, ListMethod: General3}},
		{"list General-3 with metrics", listWalk, Options{Procs: 2, ListMethod: General3, Metrics: NewMetrics()}},
		{"associative", associative, Options{Procs: 2}},
		{"while program sequential", whileProgram, Options{Strategy: StrategySequential}},
		{"while program", whileProgram, auto("alloc-while")},
	}

	for _, p := range paths {
		p := p
		t.Run(p.name, func(t *testing.T) {
			measure := func(n int) float64 {
				run := p.build(t, n, p.opt)
				run() // warm the pools and the call-site profile
				run()
				return testing.AllocsPerRun(5, run)
			}
			small, large := measure(allocN), measure(8*allocN)
			t.Logf("allocations per run: %.0f at N=%d, %.0f at N=%d", small, allocN, large, 8*allocN)
			if large > small+allocSlack {
				t.Errorf("allocations grow with the trip count: %.0f at N=%d, %.0f at N=%d (slack %d)",
					small, allocN, large, 8*allocN, allocSlack)
			}
		})
	}
}

// The post-barrier passes of the speculative engines — the PD test's
// Analyze and the stamped memory's Undo — work out of journals and lists
// their Test and Memory own (or took from the arena): once those are
// warm, a clean Analyze and an Undo allocate nothing, whether N or 8N
// locations were marked and stamped.
func TestPostBarrierPassesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, n := range []int{allocN, 8 * allocN} {
		a := NewArray("A", n)
		pd := pdtest.New(a, 2)
		ts := tsmem.NewSharded(2, a)
		ts.Checkpoint()
		// Iteration i updates A[i]; the two workers take alternate runs
		// of 64 iterations that straddle the 64-element blocks, as the
		// Dynamic schedule's claims do.
		vpn := func(i int) int { return (i + 30) / 64 % 2 }
		analyze := func() {
			for i := 0; i < n; i++ {
				pd.MarkLoad(a, i, i, vpn(i))
				pd.MarkStore(a, i, i, vpn(i))
			}
			if r := pd.AnalyzeQuiet(n); !r.DOALL || r.Accesses != 2*n {
				t.Fatalf("clean loop judged %+v", r)
			}
			pd.Reset()
		}
		undo := func() {
			for i := 0; i < n; i++ {
				ts.StampStore(a, i, 1, i, vpn(i))
			}
			if restored, err := ts.Undo(n * 7 / 8); err != nil || restored != n/8 {
				t.Fatalf("Undo restored %d of %d, err = %v", restored, n/8, err)
			}
			ts.Rearm(ts.WriteSet())
		}
		for name, pass := range map[string]func(){"Analyze": analyze, "Undo": undo} {
			pass() // grow the journals, the touched-block list and the write-set
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Errorf("%s after %d marks/stamps: %.0f allocations per pass, want 0", name, n, allocs)
			}
		}
		pd.Release()
		ts.Release()
	}
}
