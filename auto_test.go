package whilepar

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"whilepar/internal/autotune"
	"whilepar/internal/costmodel"
)

// The adaptive default must be invisible except for speed: whatever
// engine the selector picks, the committed result equals the sequential
// oracle. These tests drive the Table 1 workload shapes the selector
// routes differently — clean RI loops (DOALL), RV early exits under
// speculation, and violating bodies that force undo + sequential
// re-execution — through fully-defaulted Options.
//
// Which engine that is now also depends on the clock: the planner runs
// a loop sequentially when its timed probe and the host's unit costs
// predict no gain, and these bodies are all far too light to gain.  The
// package's TestMain therefore switches the clock off (every run takes
// the engine Table 1 and the profile call for, as before), and the
// tests of the planner inject priced tables into their own stores.

// freeTable prices every parallel engine at nothing: the planner always
// predicts Sp_at = procs and keeps the engine Decide picked, however
// light the body — a model that over-promises.
func freeTable() *autotune.Table { return &autotune.Table{} }

// prohibitiveTable prices every tracked access and dispatch far above
// any body a test runs: the planner always predicts a loss.
func prohibitiveTable() *autotune.Table {
	row := costmodel.UnitCosts{Dispatch: 1e6, Load: 1e6, Store: 1e6, Elem: 1e6, CheckpointWord: 1e6, UndoWord: 1e6, Barrier: 1e9}
	return &autotune.Table{Tiers: [3]costmodel.UnitCosts{row, row, row}, DOALL: row}
}

// pricedStore returns an empty profile store whose loops the planner
// prices with tab.
func pricedStore(tab *autotune.Table) *ProfileStore {
	st := NewProfileStore()
	st.SetTable(tab)
	return st
}

func TestStrategyValidationTable(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want error
	}{
		{"bad value", Options{Strategy: Strategy(99)}, ErrBadStrategy},
		{"negative value", Options{Strategy: Strategy(-1)}, ErrBadStrategy},
		{"runtwice+tested", Options{Strategy: StrategyRunTwice, Tested: []*Array{NewArray("T", 4)}}, ErrRunTwiceUnanalyzable},
		{"recover+sparse", Options{Strategy: StrategyRecover, SparseUndo: true}, ErrRecoveryUnsupported},
		{"pipeline+sparse", Options{Strategy: StrategyPipeline, SparseUndo: true}, ErrPipelineUnsupported},
		{"sequential", Options{Strategy: StrategySequential}, nil},
		{"speculate", Options{Strategy: StrategySpeculate}, nil},
		{"runtwice", Options{Strategy: StrategyRunTwice}, nil},
		{"recover", Options{Strategy: StrategyRecover}, nil},
		{"pipeline", Options{Strategy: StrategyPipeline}, nil},
		{"zero value", Options{}, nil},
	}
	for _, c := range cases {
		err := c.opt.Validate()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestStrategySequentialExplicit(t *testing.T) {
	a := NewArray("A", 64)
	l := &IntLoop{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
		Disp:  IntInduction{C: 1},
		Body: func(it *Iter, d int) bool {
			if d >= 40 {
				return false
			}
			it.Store(a, d, float64(d))
			return true
		},
		Max: 64,
	}
	rep, err := Run(l, Options{Strategy: StrategySequential, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 40 || rep.UsedParallel || !strings.Contains(rep.Strategy, "sequential") {
		t.Fatalf("report %+v", rep)
	}
}

// mkAutoLoop builds one of three workload shapes over its own array:
// "clean" (RI, no shared writes conflict), "earlyexit" (RV exit with
// shared stores) and "violating" (a cross-iteration read the PD test
// must catch). The returned loop owns arr.
func mkAutoLoop(shape string, n, exit, dist int, arr *Array) *IntLoop {
	switch shape {
	case "clean":
		return &IntLoop{
			Class: Class{Dispatcher: MonotonicInduction, Terminator: RI, ThresholdOnMonotonic: true},
			Disp:  IntInduction{C: 1},
			Cond:  func(d int) bool { return d < exit },
			Body: func(it *Iter, d int) bool {
				it.Store(arr, d, float64(d)*2+1)
				return true
			},
			Max: n,
		}
	case "earlyexit":
		return &IntLoop{
			Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
			Disp:  IntInduction{C: 1},
			Body: func(it *Iter, d int) bool {
				if d >= exit {
					return false
				}
				it.Store(arr, d, float64(d)+0.5)
				return true
			},
			Max: n,
		}
	case "violating":
		return &IntLoop{
			Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
			Disp:  IntInduction{C: 1},
			Body: func(it *Iter, d int) bool {
				if d >= exit {
					return false
				}
				prev := 0.0
				if d >= dist {
					prev = it.Load(arr, d-dist)
				}
				it.Store(arr, d, prev+1)
				return true
			},
			Max: n,
		}
	}
	panic("unknown shape " + shape)
}

func TestAutoMatchesSequentialOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []string{"clean", "earlyexit", "violating"}
	// One store per shape and table so later trials run warm: both the
	// cold and the profile-driven plans must match the oracle — with the
	// clock off (the engines Table 1 calls for), with a model that
	// over-promises (speculation, then the Tuner's measured demotion) and
	// with one under which nothing pays (probe + sequential remainder).
	tables := []*autotune.Table{nil, freeTable(), prohibitiveTable()}
	stores := map[string][]*ProfileStore{}
	for _, s := range shapes {
		for _, tab := range tables {
			st := NewProfileStore()
			if tab != nil {
				st.SetTable(tab)
			}
			stores[s] = append(stores[s], st)
		}
	}
	for trial := 0; trial < 36; trial++ {
		shape := shapes[trial%len(shapes)]
		store := stores[shape][trial/len(shapes)%len(tables)]
		n := 200 + rng.Intn(1800)
		exit := 1 + rng.Intn(n)
		dist := 1 + rng.Intn(3)

		oracleArr := NewArray("A", n)
		oracle := mkAutoLoop(shape, n, exit, dist, oracleArr)
		wantValid := LastValidInt(oracle)

		arr := NewArray("A", n)
		l := mkAutoLoop(shape, n, exit, dist, arr)
		opt := Options{Profiles: store, Key: "auto-equiv-" + shape}
		if trial%2 == 1 {
			// An explicit proc count pins a parallel request even on a
			// single-core host (where the defaulted count resolves to 1
			// and the selector goes sequential), so the parallel plans
			// stay exercised everywhere; even trials keep the
			// fully-defaulted path.
			opt.Procs = 4
		}
		if shape != "clean" {
			opt.Shared = []*Array{arr}
			opt.Tested = []*Array{arr}
		}
		rep, err := Run(l, opt)
		if err != nil {
			t.Fatalf("trial %d (%s n=%d exit=%d): %v", trial, shape, n, exit, err)
		}
		if rep.Valid != wantValid {
			t.Fatalf("trial %d (%s n=%d exit=%d): Valid = %d, oracle %d (report %+v)",
				trial, shape, n, exit, rep.Valid, wantValid, rep)
		}
		if !arr.Equal(oracleArr) {
			t.Fatalf("trial %d (%s n=%d exit=%d): array state diverged from oracle", trial, shape, n, exit)
		}
	}
}

func TestAutoStrategyDeterministicGivenProfile(t *testing.T) {
	// The engine choice is a pure function of the persisted profile,
	// the probe's estimate and the table of unit costs.  The estimate is
	// a wall-clock measurement, so through Run the contract shows where
	// the table leaves it no say: same persisted profile, same table,
	// same loop: same StrategyChosen.
	mk := func(arr *Array) *IntLoop {
		return mkAutoLoop("earlyexit", 1200, 900, 1, arr)
	}
	for _, c := range []struct {
		name       string
		table      *autotune.Table
		sequential bool
	}{
		{"clock off", &autotune.Table{Off: true}, false},
		{"nothing pays", prohibitiveTable(), true},
	} {
		warm := pricedStore(c.table)
		for i := 0; i < 3; i++ {
			a := NewArray("A", 1200)
			if _, err := Run(mk(a), Options{Procs: 4, Profiles: warm, Key: "det", Shared: []*Array{a}, Tested: []*Array{a}}); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := json.Marshal(warm)
		if err != nil {
			t.Fatal(err)
		}
		run := func() string {
			st := pricedStore(c.table)
			if err := json.Unmarshal(blob, st); err != nil {
				t.Fatal(err)
			}
			a := NewArray("A", 1200)
			rep, err := Run(mk(a), Options{Procs: 4, Profiles: st, Key: "det", Shared: []*Array{a}, Tested: []*Array{a}})
			if err != nil {
				t.Fatal(err)
			}
			return rep.StrategyChosen
		}
		s1, s2 := run(), run()
		if s1 != s2 {
			t.Fatalf("%s: same profile chose different strategies: %q vs %q", c.name, s1, s2)
		}
		if !strings.HasPrefix(s1, "auto:") || strings.Contains(s1, "sequential") != c.sequential {
			t.Fatalf("%s: StrategyChosen = %q", c.name, s1)
		}

		// And the function itself, on the persisted profile: the same
		// estimate gives the same plan, whatever the clock read.
		prof, ok := warm.Lookup("det")
		if !ok {
			t.Fatalf("%s: no profile under the key", c.name)
		}
		est := autotune.Estimate{NsPerIter: 37.5, Loads: 0, Stores: 1, Words: 1200}
		p1 := autotune.DecideTimed(prof, true, est, c.table, 1000, 4, true)
		p2 := autotune.DecideTimed(prof, true, est, c.table, 1000, 4, true)
		if p1 != p2 {
			t.Fatalf("%s: DecideTimed is not a function of its inputs:\n%+v\n%+v", c.name, p1, p2)
		}
	}
}

// The planner's verdict is in the Report: a light body under a table of
// real prices runs sequentially after its probe, with the predicted
// Sp_at (below 1) and the reasoning in Report.Decision — no Options
// field, no new Report field.
func TestAutoPlannerRunsALightBodySequentially(t *testing.T) {
	const n, exit = 20000, 15000
	oracleArr := NewArray("A", n)
	wantValid := LastValidInt(mkAutoLoop("earlyexit", n, exit, 1, oracleArr))
	store := pricedStore(prohibitiveTable())
	for i := 0; i < 3; i++ {
		arr := NewArray("A", n)
		m := NewMetrics()
		rep, err := Run(mkAutoLoop("earlyexit", n, exit, 1, arr),
			Options{Procs: 4, Profiles: store, Key: "light", Metrics: m, Shared: []*Array{arr}, Tested: []*Array{arr}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Valid != wantValid || !arr.Equal(oracleArr) {
			t.Fatalf("run %d diverged from the oracle: Valid = %d, want %d", i, rep.Valid, wantValid)
		}
		if rep.StrategyChosen != "auto: probe + sequential" || rep.UsedParallel {
			t.Fatalf("run %d: %q (used parallel: %v)", i, rep.StrategyChosen, rep.UsedParallel)
		}
		d := rep.Decision
		if d.Parallelize || d.ExpectedSpeedup <= 0 || d.ExpectedSpeedup >= 1 || !strings.Contains(d.Reason, "Sp_at") {
			t.Fatalf("run %d: Decision %+v", i, d)
		}
		// Extended until it was long enough to time, within its quarter.
		if rep.ProbeIters <= 64 || rep.ProbeIters > n/4 || rep.ProbeNs <= 0 {
			t.Fatalf("run %d: probe of %d iterations in %d ns", i, rep.ProbeIters, rep.ProbeNs)
		}
		if s := m.Snapshot(); s.SpecAttempts != 0 || s.CheckpointWords != 0 || s.PDTests != 0 {
			t.Fatalf("run %d built speculative state: %+v", i, s)
		}
	}
	prof, _ := store.Lookup("light")
	if prof.Runs != 3 || prof.NsPerIter <= 0 || prof.SpecNsPerIter != 0 || prof.LastEngine != autotune.Sequential {
		t.Fatalf("profile %+v", prof)
	}
}

// A model that over-promises — every cost free, so Sp_at = procs on a
// body of a few nanoseconds — is caught by measurement: mid-run, when
// the first strips have cost more per iteration than the probe says
// sequential execution does, the Tuner hands the remainder to the
// sequential executor; and across runs, as the profile learns what
// speculation costs here.  The result is the sequential one throughout.
func TestAutoPlannerDemotesAnOverPromisingModel(t *testing.T) {
	const n, exit = 60000, 50000
	oracleArr := NewArray("A", n)
	wantValid := LastValidInt(mkAutoLoop("earlyexit", n, exit, 1, oracleArr))
	store := pricedStore(freeTable())
	var demotedMidRun, wentSequential bool
	for i := 0; i < 12 && !wentSequential; i++ {
		arr := NewArray("A", n)
		rep, err := Run(mkAutoLoop("earlyexit", n, exit, 1, arr),
			Options{Procs: 4, Profiles: store, Key: "over-promised", Shared: []*Array{arr}, Tested: []*Array{arr}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Valid != wantValid || !arr.Equal(oracleArr) {
			t.Fatalf("run %d (%s, retunes %v) diverged from the oracle: Valid = %d, want %d",
				i, rep.StrategyChosen, rep.Retunes, rep.Valid, wantValid)
		}
		if i == 0 && (!rep.Decision.Parallelize || rep.Decision.ExpectedSpeedup <= 1) {
			t.Fatalf("the free table did not promise a gain: %+v", rep.Decision)
		}
		for _, ev := range rep.Retunes {
			if ev.Action == "sequential: measured" {
				demotedMidRun = true
				if ev.AtIter >= exit {
					t.Fatalf("demoted at %d, after the loop was over", ev.AtIter)
				}
			}
		}
		wentSequential = rep.StrategyChosen == "auto: probe + sequential"
		if wentSequential && rep.Decision.ExpectedSpeedup >= 1 {
			t.Fatalf("sequential on a predicted gain: %+v", rep.Decision)
		}
	}
	if !demotedMidRun {
		t.Error("no run was demoted mid-run on its measured strip time")
	}
	if !wentSequential {
		t.Error("a dozen losing runs never taught the profile to run sequentially")
	}
	if prof, _ := store.Lookup("over-promised"); prof.SpecNsPerIter <= prof.NsPerIter {
		t.Errorf("profile %+v: speculation measured no slower than sequential", prof)
	}
}

func TestAutoReportAndCounters(t *testing.T) {
	m := NewMetrics()
	a := NewArray("A", 2000)
	l := mkAutoLoop("earlyexit", 2000, 1500, 1, a)
	rep, err := Run(l, Options{Metrics: m, Shared: []*Array{a}, Tested: []*Array{a}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rep.StrategyChosen, "auto:") {
		t.Fatalf("StrategyChosen = %q", rep.StrategyChosen)
	}
	if rep.ProbeIters <= 0 || rep.ProbeNs < 0 {
		t.Fatalf("probe accounting %+v", rep)
	}
	if s := m.Snapshot(); s.ProbeRuns != 1 {
		t.Fatalf("ProbeRuns = %d, want 1", s.ProbeRuns)
	}
	if rep.Valid != 1500 {
		t.Fatalf("Valid = %d", rep.Valid)
	}
}
