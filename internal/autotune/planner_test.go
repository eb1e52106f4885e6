package autotune

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"whilepar/internal/costmodel"
	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

// specLightTable is the `-trace 1` unit costs of the spec-light workload
// on the 2-vCPU builder (ns): the point the planner was sized at.  The
// signature and trusted rows scale it the way calibration does.
func specLightTable() *Table {
	full := costmodel.UnitCosts{Dispatch: 2.7, Load: 13.9, Store: 9.7 + 4.7, Elem: 11.1,
		CheckpointWord: 1.0, UndoWord: 51.6, Barrier: 2600}
	signature := full
	signature.Load, signature.Store, signature.Elem = 5.7, 9.7+5.7, 0
	signature.Barrier += 7500
	trusted := full
	trusted.Load /= AuditEvery
	trusted.Store /= AuditEvery
	trusted.Elem /= AuditEvery
	trusted.CheckpointWord /= AuditEvery
	return &Table{Tiers: [3]costmodel.UnitCosts{full, signature, trusted},
		DOALL: costmodel.UnitCosts{Dispatch: full.Dispatch, Barrier: 2600}}
}

// One load and one store per iteration over a 262144-word array: the
// spec-light loop.
func specLight(ns float64) Estimate {
	return Estimate{NsPerIter: ns, Loads: 1, Stores: 1, Words: 262144}
}

func TestDecideTimedTable(t *testing.T) {
	tab := specLightTable()
	const remaining, procs = 260000, 2
	earned := func(streak int) Profile {
		return Profile{Runs: streak + 2, TripFraction: 1, CleanStreak: streak, LastEngine: Speculative}
	}
	cases := []struct {
		name      string
		prof      Profile
		have      bool
		est       Estimate
		needsSpec bool
		engine    Engine
		tier      int
		above1    bool // the predicted Sp_at
	}{
		{"light body speculates at a loss", Profile{}, false, specLight(25.4), true, Sequential, 0, false},
		{"heavy body speculates", Profile{}, false, specLight(770), true, Speculative, 0, true},
		{"break-even is between them", Profile{}, false, specLight(60), true, Speculative, 0, true},
		{"no speculation needed: DOALL", Profile{}, false, Estimate{NsPerIter: 25.4}, false, DOALL, 0, true},
		{"DOALL of almost nothing", Profile{}, false, Estimate{NsPerIter: 1.5}, false, Sequential, 0, false},
		// The same 35 ns body at each tier its streak has earned: the full
		// tier loses, the cheaper ones win.
		{"tier 0 priced", earned(0), true, specLight(35), true, Sequential, 0, false},
		{"tier 1 priced", earned(Tier1Streak), true, specLight(35), true, Speculative, 1, true},
		{"tier 2 priced", earned(Tier2Streak), true, specLight(35), true, Speculative, 2, true},
		{"no estimate: Decide's plan", Profile{}, false, Estimate{}, true, Speculative, 0, false},
	}
	for _, c := range cases {
		if c.have {
			c.prof.NsPerIter = c.est.NsPerIter
		}
		plan := DecideTimed(c.prof, c.have, c.est, tab, remaining, procs, c.needsSpec)
		if c.engine == Speculative && plan.Engine == Pipelined {
			plan.Engine = Speculative // which speculative engine is Decide's business
		}
		if plan.Engine != c.engine || plan.Tier != c.tier {
			t.Errorf("%s: engine %v tier %d, want %v tier %d (%s)", c.name, plan.Engine, plan.Tier, c.engine, c.tier, plan.Reason)
		}
		if c.est.NsPerIter > 0 && (plan.ExpectedSpeedup > 1) != c.above1 {
			t.Errorf("%s: ExpectedSpeedup %.2f (%s)", c.name, plan.ExpectedSpeedup, plan.Reason)
		}
		if plan.Reason == "" {
			t.Errorf("%s: no reason given", c.name)
		}
		// Without the wall clock the plan is Decide's, whatever the body.
		off := DecideTimed(c.prof, c.have, c.est, &Table{Off: true}, remaining, procs, c.needsSpec)
		if want := Decide(c.prof, c.have, remaining, procs, c.needsSpec); off.Engine != want.Engine || off.Tier != want.Tier || off.SeqNsPerIter != 0 {
			t.Errorf("%s: an Off table gave %+v, Decide %+v", c.name, off, want)
		}
	}

	// The sizing example: (25.4 + 39.4)/2 plus the per-strip costs, against
	// 25.4 sequential.
	plan := DecideTimed(Profile{}, false, specLight(25.4), tab, remaining, procs, true)
	if plan.ExpectedSpeedup < 0.6 || plan.ExpectedSpeedup > 0.85 {
		t.Errorf("spec-light Sp_at = %.2f, want about 0.75 (%s)", plan.ExpectedSpeedup, plan.Reason)
	}
	if !strings.Contains(plan.Reason, "predicted") {
		t.Errorf("an unmeasured call site's reason %q does not say the figure is the model's", plan.Reason)
	}
	// Structural rules come first and predict nothing.
	if p := DecideTimed(Profile{}, false, specLight(770), tab, remaining, 1, true); p.Engine != Sequential || p.ExpectedSpeedup != 1 {
		t.Errorf("one processor: %+v", p)
	}
}

// The same profile, estimate and table give the same plan — the
// contract that replaced "wall time never selects the engine".
func TestDecideTimedIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := specLightTable()
	for i := 0; i < 2000; i++ {
		prof := Profile{Runs: rng.Intn(5), NsPerIter: 200 * rng.Float64(), SpecNsPerIter: 300 * rng.Float64() * float64(rng.Intn(2)),
			TripFraction: rng.Float64(), ViolationRate: 0.3 * rng.Float64(), CleanStreak: rng.Intn(12),
			LastEngine: Engine(rng.Intn(4)), LastTier: rng.Intn(3)}
		est := Estimate{NsPerIter: 400 * rng.Float64(), Loads: float64(rng.Intn(4)), Stores: float64(rng.Intn(3)), Words: rng.Intn(1 << 20)}
		remaining, procs, needsSpec := 100+rng.Intn(1<<20), 1+rng.Intn(8), rng.Intn(2) == 0
		a := DecideTimed(prof, true, est, tab, remaining, procs, needsSpec)
		b := DecideTimed(prof, true, est, tab, remaining, procs, needsSpec)
		if a != b {
			t.Fatalf("same inputs, different plans:\n%+v\n%+v", a, b)
		}
		if a.Engine != Sequential && a.ExpectedSpeedup <= 1/(1+Hysteresis) {
			t.Fatalf("a parallel plan predicted to lose beyond the band: %+v", a)
		}
		if math.IsNaN(a.ExpectedSpeedup) || math.IsInf(a.ExpectedSpeedup, 0) {
			t.Fatalf("ExpectedSpeedup %v from %+v %+v", a.ExpectedSpeedup, prof, est)
		}
	}
}

// run plays one auto-tuned execution against the store the way core
// does: look the profile up, decide, and record what the chosen engine
// would have measured (specNs: the true cost of an iteration under
// speculation).
func run(st *ProfileStore, tab *Table, est Estimate, specNs float64, remaining, procs int) Plan {
	prof, have := st.Lookup("k")
	plan := DecideTimed(prof, have, est, tab, remaining, procs, true)
	smp := Sample{Valid: remaining, Total: remaining, Ns: int64(est.NsPerIter * 1024), NsIters: 1024, Engine: plan.Engine}
	if plan.Engine != Sequential {
		smp.Strips, smp.SpecIters, smp.SpecNs = 8, remaining, int64(specNs*float64(remaining))
		smp.SpecPredicted = plan.SeqNsPerIter / plan.ExpectedSpeedup
	}
	st.Record("k", smp)
	return plan
}

// Probe estimates scattered ±40% around the spec-light point must not
// move the engine once the profile is warm, and neither around a loop
// speculation wins on.  Where the model is wrong and measurement had to
// overturn it, the remembered cost of speculation stops improving the
// moment sequential is chosen, just past the band; a rare run of high
// probes can cross back, and each such excursion re-measures and pushes
// the verdict further out.  Those are allowed, a handful in 500 runs.
func TestHysteresisUnderProbeJitter(t *testing.T) {
	tab := specLightTable()
	const remaining, procs = 260000, 2
	for _, c := range []struct {
		name   string
		seqNs  float64 // the loop's true sequential ns/iter
		specNs float64 // and its true ns/iter under speculation
		want   Engine
		allow  int // engine switches tolerated after warm-up
	}{
		{"spec-light: the model says no", 25.4, 61, Sequential, 0},
		{"a heavy body: the model says yes and is right", 770, 420, Speculative, 0},
		{"an over-promising model: measurement says no", 120, 190, Sequential, 4},
	} {
		rng := rand.New(rand.NewSource(40))
		st := NewProfileStore()
		jittered := func() Estimate { return specLight(c.seqNs * (0.6 + 0.8*rng.Float64())) }
		for i := 0; i < 12; i++ { // the benchmark's warm-up
			run(st, tab, jittered(), c.specNs, remaining, procs)
		}
		switches, last := 0, Engine(-1)
		for i := 0; i < 500; i++ {
			plan := run(st, tab, jittered(), c.specNs, remaining, procs)
			e := plan.Engine
			if e == Pipelined {
				e = Speculative
			}
			if last >= 0 && e != last {
				switches++
			}
			last = e
		}
		if switches > c.allow || last != c.want {
			t.Errorf("%s: %d engine switches after warm-up, ended on %v (want at most %d, %v)", c.name, switches, last, c.allow, c.want)
		}
	}
}

// A run the Tuner demoted is recorded Sequential, so the next decision
// faces the promotion bar again.  While the remembered cost still clears
// it, speculation is tried again — several slow runs overturn the model,
// not one.  The run after which it no longer does must leave the profile
// where the measurement puts it, a band or more below the bar: were its
// cost folded in at the EWMA's weight like the others', the remembered
// cost would have crept just under the bar and stopped there — a few per
// cent of probe drift from yet another demoted run.
func TestHysteresisSurvivesTunerDemotion(t *testing.T) {
	tab := specLightTable()
	const remaining, procs = 28000, 2
	// A heavy body the model promises ~1.9x on, which rewinds eat: the
	// strips the Tuner saw cost 1.2x the sequential estimate.
	const seqNs, specNs = 750.0, 900.0
	st := NewProfileStore()
	play := func(probeNs float64) Plan {
		prof, have := st.Lookup("k")
		est := Estimate{NsPerIter: probeNs, Loads: 1, Stores: 1, Words: 32768}
		plan := DecideTimed(prof, have, est, tab, remaining, procs, true)
		smp := Sample{Valid: remaining, Total: remaining, Ns: int64(probeNs * 1024), NsIters: 1024, Engine: Sequential}
		if plan.Engine != Sequential {
			// Demoted after two strips; the rest ran sequentially.
			smp.Strips, smp.SpecIters, smp.SpecNs = 2, 4096, int64(specNs*4096)
			smp.SpecPredicted = plan.SeqNsPerIter / plan.ExpectedSpeedup
		}
		st.Record("k", smp)
		return plan
	}
	if cold := play(seqNs); cold.Engine == Sequential || cold.ExpectedSpeedup < 1.5 {
		t.Fatalf("cold plan %+v, want speculation on the model's word", cold)
	}
	if second := play(seqNs); second.Engine == Sequential {
		t.Fatalf("one demoted run overturned a model that promised 1.9x: %s", second.Reason)
	}
	demoted := 2
	for ; demoted < 8 && play(seqNs).Engine != Sequential; demoted++ {
	}
	prof, _ := st.Lookup("k")
	if prof.SpecNsPerIter != specNs {
		t.Fatalf("SpecNsPerIter = %.1f after %d demoted runs that cost %.0f", prof.SpecNsPerIter, demoted, specNs)
	}
	for i, drift := range []float64{1, 1.03, 1.08, 1.15, 0.95, 1.15, 1.15, 1.15} {
		plan := play(seqNs * drift)
		if plan.Engine != Sequential || plan.ExpectedSpeedup > 1 {
			t.Fatalf("run %d after the demotion, probe at %.2fx: %v, %s", i, drift, plan.Engine, plan.Reason)
		}
	}
	// A demoted run cheaper than what is remembered does not pull the
	// figure down past its EWMA.
	var p Profile
	p.SpecNsPerIter = 1000
	p.apply(Sample{Valid: 10, Total: 10, Strips: 2, SpecNs: 8000, SpecIters: 10, Engine: Sequential})
	if math.Abs(p.SpecNsPerIter-940) > 1e-9 {
		t.Fatalf("SpecNsPerIter = %v, want 1000 moved 30%% toward 800", p.SpecNsPerIter)
	}
}

func TestHysteresisBand(t *testing.T) {
	tab := specLightTable()
	const remaining, procs = 260000, 2
	// Find by bisection the body cost at which the cold prediction is
	// exactly break-even, then look just either side of it.
	lo, hi := 25.0, 770.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if DecideTimed(Profile{}, false, specLight(mid), tab, remaining, procs, true).ExpectedSpeedup > 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	even := hi
	at := func(last Engine, ns float64) Engine {
		prof := Profile{Runs: 5, NsPerIter: ns, TripFraction: 0.875, LastEngine: last}
		return DecideTimed(prof, true, specLight(ns), tab, remaining, procs, true).Engine
	}
	if e := at(Sequential, even*1.02); e != Sequential {
		t.Errorf("2%% past break-even moved a sequential call site to %v", e)
	}
	if e := at(Speculative, even*0.98); e == Sequential {
		t.Errorf("2%% short of break-even moved a speculative call site to sequential")
	}
	// Well outside the band either side does move.
	if e := at(Sequential, even*2); e == Sequential {
		t.Errorf("twice the break-even body stayed sequential")
	}
	if e := at(Speculative, even/2); e != Sequential {
		t.Errorf("half the break-even body stayed on %v", e)
	}
	if Hysteresis < 0.10 {
		t.Errorf("Hysteresis = %v, the band must be at least 10%%", Hysteresis)
	}
	// A call site with no history speculates from inside the band up —
	// its first run is what replaces the prediction by a measurement —
	// but is not handed to a plain DOALL, which nothing would measure.
	cold := func(ns float64, needsSpec bool) Plan {
		est := specLight(ns)
		if !needsSpec {
			est = Estimate{NsPerIter: ns}
		}
		return DecideTimed(Profile{}, false, est, tab, remaining, procs, needsSpec)
	}
	if p := cold(even*0.98, true); p.Engine == Sequential || p.ExpectedSpeedup >= 1 {
		t.Errorf("a cold call site 2%% short of break-even: %v, %s", p.Engine, p.Reason)
	}
	if p := cold(even/2, true); p.Engine != Sequential {
		t.Errorf("a cold call site at half the break-even body chose %v", p.Engine)
	}
	for ns := 1.0; ns < 50; ns *= 1.02 {
		if p := cold(ns, false); p.ExpectedSpeedup <= 1 && p.Engine != Sequential {
			t.Errorf("a cold DOALL predicted at %.2f ran as %v", p.ExpectedSpeedup, p.Engine)
		}
	}
}

// One slow probe — a stall 30 times the loop's real cost — must neither
// flip the choice nor poison the profile for the runs after it.
func TestProbeOutlierDoesNotFlipASequentialCallSite(t *testing.T) {
	tab := specLightTable()
	const remaining, procs = 260000, 2
	st := NewProfileStore()
	for i := 0; i < 12; i++ {
		run(st, tab, specLight(25.4), 61, remaining, procs)
	}
	for i := 0; i < 20; i++ {
		ns := 25.4
		if i%5 == 0 {
			ns = 713 // a 45 µs stall inside a 64-iteration chunk
		}
		if plan := run(st, tab, specLight(ns), 61, remaining, procs); plan.Engine != Sequential {
			t.Fatalf("run %d (probe %.0f ns/iter) chose %v: %s", i, ns, plan.Engine, plan.Reason)
		}
	}
}

// The measured correction: a model that promises a win speculation does
// not deliver is overturned by measurement — after several slow runs,
// not one — and a persisted profile carries the lesson.
func TestPlannerLearnsFromMeasuredSpeculation(t *testing.T) {
	tab := specLightTable()
	const remaining, procs = 260000, 2
	st := NewProfileStore()
	est := specLight(120) // the model: (120+39.4)/2 = 80 ns/iter, Sp_at 1.5
	first := run(st, tab, est, 190, remaining, procs)
	if first.Engine == Sequential || first.ExpectedSpeedup <= 1 {
		t.Fatalf("cold plan %+v, want speculation on the model's word", first)
	}
	second := run(st, tab, est, 190, remaining, procs)
	if second.Engine == Sequential {
		t.Fatalf("one slow run overturned the model: %s", second.Reason)
	}
	if !strings.Contains(second.Reason, "measured") {
		t.Fatalf("reason %q does not say the figure is corrected by measurement", second.Reason)
	}
	runs := 2
	for ; runs < 12 && run(st, tab, est, 190, remaining, procs).Engine != Sequential; runs++ {
	}
	if runs == 12 {
		t.Fatal("a dozen runs at 190 ns/iter against 120 sequential never gave speculation up")
	}
	prof, _ := st.Lookup("k")
	if prof.SpecNsPerIter <= 120*(1+Hysteresis) || prof.SpecNsPerIter > 190 {
		t.Fatalf("SpecNsPerIter = %.1f after %d runs measured at 190 against 120 sequential", prof.SpecNsPerIter, runs)
	}
	// Sticky: sequential runs measure nothing new, and the verdict holds.
	for i := 0; i < 5; i++ {
		if p := run(st, tab, est, 190, remaining, procs); p.Engine != Sequential || p.ExpectedSpeedup >= 1 {
			t.Fatalf("plan %+v after speculation was given up", p)
		}
	}
	// And it survives the store's round trip.
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	back := NewProfileStore()
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatal(err)
	}
	if p := run(back, tab, est, 190, remaining, procs); p.Engine != Sequential {
		t.Fatalf("the reloaded profile chose %v", p.Engine)
	}
}

func TestStoreTableInjection(t *testing.T) {
	SetHostTable(&Table{Off: true}) // no calibration in a unit test
	defer SetHostTable(nil)
	st := NewProfileStore()
	if st.Table(true) != HostTable(true) || st.Table(false) != HostTable(true) {
		t.Fatal("a fresh store does not price with the host's table")
	}
	mine := specLightTable()
	st.SetTable(mine)
	if st.Table(true) != mine || st.Table(false) != mine {
		t.Fatal("SetTable did not take")
	}
	blob, _ := json.Marshal(st)
	if strings.Contains(string(blob), "Tiers") || strings.Contains(string(blob), "tiers") {
		t.Fatalf("the table leaked into the persisted payload: %s", blob)
	}
	if err := json.Unmarshal(blob, st); err != nil || st.Table(true) != mine {
		t.Fatalf("loading profiles dropped the injected table (err %v)", err)
	}
}

// The calibration measures real work: every row comes out positive and
// ordered the way the tiers are — and twice in a row within a factor
// that says it measured the host, not the noise.
func TestCalibrationIsSane(t *testing.T) {
	a, b := calibrate(), calibrate()
	for _, tab := range []*Table{a, b} {
		if d := tab.DOALL; d.Dispatch <= 0 || d.Barrier <= 0 || d.Load != 0 || d.Store != 0 || d.Elem != 0 || d.CheckpointWord != 0 {
			t.Errorf("DOALL row %+v: dispatch and barrier, nothing tracked", d)
		}
		full, signature, trusted := tab.Tiers[0], tab.Tiers[1], tab.Tiers[2]
		for name, v := range map[string]float64{"Dispatch": full.Dispatch, "Load": full.Load, "Store": full.Store,
			"Elem": full.Elem, "CheckpointWord": full.CheckpointWord, "UndoWord": full.UndoWord, "Barrier": full.Barrier} {
			if v <= 0 || v > 1e6 {
				t.Errorf("full tier %s = %v ns", name, v)
			}
		}
		if signature.Elem != 0 || signature.Barrier <= full.Barrier {
			t.Errorf("signature row %+v: the verdict is per strip, not per element", signature)
		}
		if trusted.Load >= full.Load || trusted.Store >= full.Store || trusted.Elem >= full.Elem {
			t.Errorf("trusted row %+v not below the full row %+v", trusted, full)
		}
	}
	if r := a.Tiers[0].Store / b.Tiers[0].Store; r < 0.2 || r > 5 {
		t.Errorf("two calibrations price a tracked store at %.1f and %.1f ns", a.Tiers[0].Store, b.Tiers[0].Store)
	}
}

// A model that over-promises is caught mid-run: once the strips have
// cost more per committed iteration than sequential execution would,
// the Tuner demotes — but not on the first strip alone, not inside the
// band, and not when no estimate was given.
func TestTunerDemotesOnMeasuredStripTime(t *testing.T) {
	const seq = 100.0 // ns/iter, the planner's sequential estimate
	newTuner := func(seqNs float64, m *obs.Metrics) *Tuner {
		return NewTuner(TunerConfig{Plan: Plan{Engine: Speculative, Strip: 1000, Schedule: sched.Dynamic},
			Procs: 4, Total: 100_000, Metrics: m, SeqNsPerIter: seqNs})
	}
	at := map[*Tuner]int{}
	strips := func(tu *Tuner, nsPerIter float64, count int) {
		for i := 0; i < count; i++ {
			tu.Observe(at[tu], 1000, at[tu]+1000, true, int64(nsPerIter*1000))
			at[tu] += 1000
		}
	}

	m := obs.NewMetrics()
	tu := newTuner(seq, m)
	strips(tu, 3*seq, 1)
	if tu.SwitchSequential() {
		t.Fatal("demoted on the first strip alone")
	}
	strips(tu, 3*seq, 1)
	if !tu.SwitchSequential() {
		t.Fatal("two strips at three times the sequential estimate did not demote")
	}
	ev := tu.Events()
	if len(ev) == 0 || ev[0].Action != "sequential: measured" || ev[0].AtIter != 2000 {
		t.Fatalf("events %+v", ev)
	}
	if m.Snapshot().StrategySwitches != 1 {
		t.Fatalf("StrategySwitches = %d", m.Snapshot().StrategySwitches)
	}
	if tu.SwitchPipeline() {
		t.Fatal("a demoted run was also promoted")
	}

	inBand := newTuner(seq, nil)
	strips(inBand, seq*(1+Hysteresis/2), 10)
	if inBand.SwitchSequential() {
		t.Fatal("demoted inside the hysteresis band")
	}
	winning := newTuner(seq, nil)
	strips(winning, seq/3, 10)
	if winning.SwitchSequential() {
		t.Fatal("demoted a run that is winning")
	}
	// A violated strip's rewind and re-execution count: cheap clean
	// strips followed by expensive failures cross the line cumulatively.
	mixed := newTuner(seq, nil)
	strips(mixed, seq/2, 4)
	for i := 4; i < 8 && !mixed.SwitchSequential(); i++ {
		mixed.Observe(i*1000, 1000, i*1000+1000, false, int64(4*seq*1000))
	}
	if !mixed.SwitchSequential() {
		t.Fatal("rewinds that ate the run's gain did not demote")
	}
	untimed := newTuner(0, nil)
	strips(untimed, 1e6, 10)
	if untimed.SwitchSequential() {
		t.Fatal("demoted without a sequential estimate to compare with")
	}
}

func TestFoldSeqAndSpecPrior(t *testing.T) {
	if got := foldSeq(0, 50); got != 50 {
		t.Fatalf("first sample: %v", got)
	}
	if got := foldSeq(100, 130); math.Abs(got-109) > 1e-9 {
		t.Fatalf("EWMA: %v", got)
	}
	if got := foldSeq(100, 5000); math.Abs(got-130) > 1e-9 {
		t.Fatalf("a 50x outlier moved 100 to %v, want the clamp's 130", got)
	}
	if got := foldSeq(100, 10); math.Abs(got-73) > 1e-9 {
		t.Fatalf("a faster sample is believed: %v", got)
	}
	// The first speculative measurement is folded into the prediction.
	var p Profile
	p.apply(Sample{Valid: 10, Total: 10, Strips: 1, SpecNs: 2000, SpecIters: 10, SpecPredicted: 100, Engine: Speculative})
	if math.Abs(p.SpecNsPerIter-130) > 1e-9 {
		t.Fatalf("SpecNsPerIter = %v, want 100 moved 30%% toward 200", p.SpecNsPerIter)
	}
	// With no prediction the measurement stands.
	var q Profile
	q.apply(Sample{Valid: 10, Total: 10, Strips: 1, SpecNs: 2000, SpecIters: 10, Engine: Speculative})
	if q.SpecNsPerIter != 200 {
		t.Fatalf("SpecNsPerIter = %v", q.SpecNsPerIter)
	}
	// A sequential run teaches nothing about speculation.
	q.apply(Sample{Valid: 10, Total: 10, Ns: 100, NsIters: 10, Engine: Sequential})
	if q.SpecNsPerIter != 200 {
		t.Fatalf("a sequential run moved SpecNsPerIter to %v", q.SpecNsPerIter)
	}
}

// A process that only runs plain DOALLs is priced without ever building
// the shadows: the DOALL row is calibrated alone, and replaced by the
// full table's once something needs that.
func TestHostTableCalibratesTheDOALLRowAlone(t *testing.T) {
	host.Lock()
	saved := []*Table{host.doall, host.full, host.set}
	host.doall, host.full, host.set = nil, nil, nil
	host.Unlock()
	defer func() {
		host.Lock()
		host.doall, host.full, host.set = saved[0], saved[1], saved[2]
		host.Unlock()
	}()

	light := HostTable(false)
	if host.full != nil {
		t.Fatal("asking for the DOALL row built the whole table")
	}
	if light.DOALL.Dispatch <= 0 || light.DOALL.Barrier <= 0 || light.Tiers[0] != (costmodel.UnitCosts{}) {
		t.Fatalf("DOALL-only table %+v", light)
	}
	if HostTable(false) != light {
		t.Fatal("the DOALL row was calibrated twice")
	}
	full := HostTable(true)
	if full.Tiers[0].Store <= 0 || full.DOALL.Dispatch <= 0 {
		t.Fatalf("full table %+v", full)
	}
	if HostTable(false) != full || HostTable(true) != full {
		t.Fatal("once calibrated, the full table serves every request")
	}
}
