package autotune

import (
	"encoding/json"
	"strings"
	"testing"

	"whilepar/internal/obs"
	"whilepar/internal/sched"
)

func TestProbeSize(t *testing.T) {
	cases := []struct {
		total, procs, want int
	}{
		{1000, 4, 64},  // floor 16 > 2*4, snapped up to the sig block grain
		{1000, 32, 64}, // 2*procs, already on the grain
		{40, 4, 10},    // capped at total/4
		{1, 4, 1},      // tiny loop: at least 1
		{8, 2, 2},      // total/4
	}
	for _, c := range cases {
		if got := ProbeSize(c.total, c.procs); got != c.want {
			t.Errorf("ProbeSize(%d, %d) = %d, want %d", c.total, c.procs, got, c.want)
		}
	}
}

func TestDecideRules(t *testing.T) {
	procs := 8
	// No profile, speculation needed: stripped speculation, dynamic.
	p := Decide(Profile{}, false, 10_000, procs, true)
	if p.Engine != Speculative || p.Schedule != sched.Dynamic || p.Window != 1 {
		t.Fatalf("cold spec plan %+v", p)
	}
	// No profile, no speculation needed: DOALL.
	if p := Decide(Profile{}, false, 10_000, procs, false); p.Engine != DOALL {
		t.Fatalf("cold doall plan %+v", p)
	}
	// Short remainder: sequential regardless of anything else.
	if p := Decide(Profile{}, false, 10, procs, true); p.Engine != Sequential {
		t.Fatalf("short remainder plan %+v", p)
	}
	// One processor: sequential, always — no engine can win back its
	// overhead without a second core's worth of work to overlap.
	if p := Decide(Profile{Runs: 3, TripFraction: 1}, true, 1_000_000, 1, true); p.Engine != Sequential {
		t.Fatalf("single-proc plan %+v", p)
	}
	// Violation-heavy history: sequential when speculation would be needed...
	hot := Profile{Runs: 3, ViolationRate: 0.8, TripFraction: 1}
	if p := Decide(hot, true, 10_000, procs, true); p.Engine != Sequential {
		t.Fatalf("violation-heavy plan %+v", p)
	}
	// ...but DOALL when it would not.
	if p := Decide(hot, true, 10_000, procs, false); p.Engine != DOALL {
		t.Fatalf("violation-heavy doall plan %+v", p)
	}
	// Clean, full-trip history: pipelined with a deeper window and a
	// stealing schedule.
	clean := Profile{Runs: 3, ViolationRate: 0, TripFraction: 1}
	p = Decide(clean, true, 10_000, procs, true)
	if p.Engine != Pipelined || p.Window != 2 || p.Schedule != sched.Stealing {
		t.Fatalf("clean history plan %+v", p)
	}
	// One clean run is not yet enough history for stealing.
	if p := Decide(Profile{Runs: 1, TripFraction: 1}, true, 10_000, procs, true); p.Schedule != sched.Dynamic {
		t.Fatalf("single-run schedule %+v", p)
	}
}

func TestInitialStrip(t *testing.T) {
	// remaining/16 clamped below by 4*procs.
	if got := InitialStrip(Profile{}, false, 10_000, 4); got != 625 {
		t.Fatalf("strip = %d, want 625", got)
	}
	if got := InitialStrip(Profile{}, false, 100, 4); got != 16 {
		t.Fatalf("small-remainder strip = %d, want the 4*procs floor", got)
	}
	if got := InitialStrip(Profile{}, false, 10, 4); got != 10 {
		t.Fatalf("tiny-remainder strip = %d, want 10 (clamped to remaining)", got)
	}
	// Violating history quarters the strip.
	base := InitialStrip(Profile{}, false, 10_000, 4)
	shrunk := InitialStrip(Profile{Runs: 2, ViolationRate: 0.5}, true, 10_000, 4)
	if shrunk >= base {
		t.Fatalf("violating strip %d not below base %d", shrunk, base)
	}
}

func TestProfileStoreRecordAndEWMA(t *testing.T) {
	st := NewProfileStore()
	if _, ok := st.Lookup("k"); ok {
		t.Fatal("empty store claims a profile")
	}
	st.Record("k", Sample{Valid: 100, Total: 100, Ns: 1000, NsIters: 100, Strips: 4, Engine: Speculative})
	p, ok := st.Lookup("k")
	if !ok || p.Runs != 1 || p.TripFraction != 1 || p.NsPerIter != 10 {
		t.Fatalf("first sample profile %+v", p)
	}
	// A violating run moves the violation rate; a strip-free run must
	// not (sticky sequential would otherwise never recover history).
	st.Record("k", Sample{Valid: 50, Total: 100, Ns: 500, NsIters: 50, Strips: 4, SeqStrips: 4, Engine: Speculative})
	p, _ = st.Lookup("k")
	if p.ViolationRate == 0 {
		t.Fatalf("violating run left rate 0: %+v", p)
	}
	rate := p.ViolationRate
	st.Record("k", Sample{Valid: 100, Total: 100, Ns: 1000, NsIters: 100, Engine: Sequential})
	p, _ = st.Lookup("k")
	if p.ViolationRate != rate {
		t.Fatalf("strip-free run moved violation rate %v -> %v", rate, p.ViolationRate)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestProfileStoreJSONRoundTrip(t *testing.T) {
	st := NewProfileStore()
	st.Record("a.go:10", Sample{Valid: 90, Total: 100, Ns: 900, NsIters: 90, Strips: 3, Engine: Pipelined})
	st.Record("b.go:20", Sample{Valid: 100, Total: 100, Ns: 200, NsIters: 100, Engine: DOALL})
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	back := NewProfileStore()
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round-trip lost profiles: %d", back.Len())
	}
	p1, _ := st.Lookup("a.go:10")
	p2, ok := back.Lookup("a.go:10")
	if !ok || p1 != p2 {
		t.Fatalf("round-trip changed profile: %+v vs %+v", p1, p2)
	}
}

func TestTunerGrowAndPipeline(t *testing.T) {
	m := obs.NewMetrics()
	tu := NewTuner(TunerConfig{Plan: Plan{Engine: Speculative, Strip: 16}, Procs: 4, Total: 10_000, PipelineOK: true, Metrics: m})
	lo := 0
	for i := 0; i < 4; i++ {
		s := tu.NextStrip(lo, 10_000)
		tu.Observe(lo, s, lo+s, true, 0)
		lo += s
	}
	if tu.NextStrip(lo, 10_000) <= 16 {
		t.Fatalf("clean streak did not grow the strip: %d", tu.NextStrip(lo, 10_000))
	}
	if !tu.SwitchPipeline() {
		t.Fatal("clean streak did not promote to pipelined")
	}
	if tu.SwitchSequential() {
		t.Fatal("clean run demoted to sequential")
	}
	evs := tu.Events()
	if len(evs) == 0 {
		t.Fatal("no retune events recorded")
	}
	var sawGrow, sawPipe bool
	for _, e := range evs {
		sawGrow = sawGrow || e.Action == "grow"
		sawPipe = sawPipe || e.Action == "pipeline"
	}
	if !sawGrow || !sawPipe {
		t.Fatalf("events %+v missing grow/pipeline", evs)
	}
	if m.Snapshot().StrategySwitches == 0 {
		t.Fatal("pipeline promotion not counted")
	}
}

func TestTunerShrinkAndSequentialDemotion(t *testing.T) {
	m := obs.NewMetrics()
	tu := NewTuner(TunerConfig{Plan: Plan{Engine: Speculative, Strip: 64}, Procs: 4, Total: 10_000, Metrics: m})
	lo := 0
	for i := 0; i < 3; i++ {
		s := tu.NextStrip(lo, 10_000)
		tu.Observe(lo, 0, lo+s, false, 0)
		lo += s
	}
	if tu.NextStrip(lo, 10_000) >= 64 {
		t.Fatalf("violation streak did not shrink the strip: %d", tu.NextStrip(lo, 10_000))
	}
	if !tu.SwitchSequential() {
		t.Fatal("violation storm did not demote to sequential")
	}
	if tu.SwitchPipeline() {
		t.Fatal("violating run promoted to pipelined")
	}
	if m.Snapshot().StrategySwitches == 0 {
		t.Fatal("sequential demotion not counted")
	}
}

func TestTunerStripNeverBelowFloor(t *testing.T) {
	tu := NewTuner(TunerConfig{Plan: Plan{Engine: Speculative, Strip: 8}, Procs: 4, Total: 1000})
	for i := 0; i < 10; i++ {
		s := tu.NextStrip(0, 1000)
		tu.Observe(0, 0, s, false, 0)
	}
	if s := tu.NextStrip(0, 1000); s < 4 {
		t.Fatalf("strip %d fell below the procs floor", s)
	}
}

func TestDecideTier(t *testing.T) {
	procs := 8
	clean := func(streak int) Profile {
		return Profile{Runs: 10, TripFraction: 1, ViolationRate: 0, CleanStreak: streak}
	}
	// The tier ladder: below Tier1Streak stays full, then signatures,
	// then (with a near-full trip fraction) trusted.
	if got := DecideTier(clean(Tier1Streak-1), true, sched.Stealing); got != 0 {
		t.Fatalf("streak %d tier = %d, want 0", Tier1Streak-1, got)
	}
	if got := DecideTier(clean(Tier1Streak), true, sched.Stealing); got != 1 {
		t.Fatalf("streak %d tier = %d, want 1", Tier1Streak, got)
	}
	if got := DecideTier(clean(Tier2Streak), true, sched.Stealing); got != 2 {
		t.Fatalf("streak %d tier = %d, want 2", Tier2Streak, got)
	}
	// Tier 2 additionally needs a near-full trip fraction: its recovery
	// path re-runs the whole range, so early exits must be rare.
	early := clean(Tier2Streak)
	early.TripFraction = 0.5
	if got := DecideTier(early, true, sched.Stealing); got != 1 {
		t.Fatalf("early-exit streak tier = %d, want 1", got)
	}
	// No tier without the stealing schedule (interleaved chunks alias
	// signature blocks) or without a profile at all.
	if got := DecideTier(clean(Tier2Streak), true, sched.Dynamic); got != 0 {
		t.Fatalf("dynamic-schedule tier = %d, want 0", got)
	}
	if got := DecideTier(clean(Tier2Streak), false, sched.Stealing); got != 0 {
		t.Fatalf("no-profile tier = %d, want 0", got)
	}
	// A violation on the last run, or a non-negligible rate, demotes to
	// full regardless of streak.
	dirty := clean(Tier2Streak)
	dirty.LastViolated = true
	if got := DecideTier(dirty, true, sched.Stealing); got != 0 {
		t.Fatalf("last-violated tier = %d, want 0", got)
	}
	rate := clean(Tier2Streak)
	rate.ViolationRate = 0.2
	if got := DecideTier(rate, true, sched.Stealing); got != 0 {
		t.Fatalf("violation-rate tier = %d, want 0", got)
	}
	// Through Decide itself: a long-clean profile lands on the stripped
	// engine (not the pipeline) with a tier and a block-aligned strip.
	p := Decide(clean(Tier2Streak), true, 100_000, procs, true)
	if p.Engine != Speculative || p.Tier != 2 {
		t.Fatalf("tiered plan %+v", p)
	}
	if p.Strip%(sigBlock*procs) != 0 {
		t.Fatalf("tiered strip %d not a multiple of %d", p.Strip, sigBlock*procs)
	}
}

func TestAlignStrip(t *testing.T) {
	if got := AlignStrip(1, 4); got != sigBlock*4 {
		t.Fatalf("AlignStrip(1, 4) = %d, want %d", got, sigBlock*4)
	}
	if got := AlignStrip(sigBlock*4, 4); got != sigBlock*4 {
		t.Fatalf("aligned input moved: %d", got)
	}
	if got := AlignStrip(sigBlock*4+1, 4); got != sigBlock*8 {
		t.Fatalf("AlignStrip rounded %d, want %d", got, sigBlock*8)
	}
}

func TestApplyCleanStreakAndViolationCredit(t *testing.T) {
	st := NewProfileStore()
	spec := func(s Sample) Sample {
		s.Total, s.Valid, s.Strips, s.Engine = 100, 100, 4, Speculative
		return s
	}
	for i := 0; i < 8; i++ {
		st.Record("k", spec(Sample{}))
	}
	p, _ := st.Lookup("k")
	if p.CleanStreak != 8 || p.LastViolated {
		t.Fatalf("after 8 clean runs: %+v", p)
	}
	// A violation quarters the streak — not a reset, but most of the
	// history is forfeit — and marks the profile dirty for one run.
	st.Record("k", spec(Sample{SeqStrips: 1, Violated: true, Tier: 1}))
	p, _ = st.Lookup("k")
	if p.CleanStreak != 2 || !p.LastViolated || p.LastTier != 1 {
		t.Fatalf("after violation: %+v", p)
	}
	// An exception-only fallback (SeqStrips without the violation flag)
	// holds the streak rather than growing or quartering it.
	st.Record("k", spec(Sample{SeqStrips: 1}))
	p, _ = st.Lookup("k")
	if p.CleanStreak != 2 || p.LastViolated {
		t.Fatalf("after exception run: %+v", p)
	}
	// A strip-free (sequential/DOALL) run says nothing about the streak.
	st.Record("k", Sample{Valid: 100, Total: 100, Engine: Sequential})
	p, _ = st.Lookup("k")
	if p.CleanStreak != 2 {
		t.Fatalf("strip-free run moved streak: %+v", p)
	}
	// An audit failure burns credit exactly like a violation.
	st.Record("k", spec(Sample{AuditFailed: true, Tier: 2}))
	p, _ = st.Lookup("k")
	if p.CleanStreak != 0 || !p.LastViolated {
		t.Fatalf("after audit failure: %+v", p)
	}
}

func TestProfileStoreSchemaVersioning(t *testing.T) {
	st := NewProfileStore()
	st.Record("k", Sample{Valid: 10, Total: 10, Engine: DOALL})
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"version":`) {
		t.Fatalf("payload missing version envelope: %s", blob)
	}
	// The pre-envelope bare-map format decodes as version 0 and is
	// discarded: the store comes back empty, not erroring.
	legacy := []byte(`{"old.go:1": {"key": "old.go:1", "runs": 5}}`)
	back := NewProfileStore()
	if err := json.Unmarshal(legacy, back); err != nil {
		t.Fatalf("legacy payload should be discarded, not rejected: %v", err)
	}
	if back.Len() != 0 {
		t.Fatalf("legacy payload survived: %d profiles", back.Len())
	}
	// So is a future version.
	future := []byte(`{"version": 99, "profiles": {"k": {"key": "k", "runs": 1}}}`)
	back = NewProfileStore()
	if err := json.Unmarshal(future, back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("future payload survived: %d profiles", back.Len())
	}
	// Malformed JSON is still an error.
	if err := json.Unmarshal([]byte(`{"version": `), NewProfileStore()); err == nil {
		t.Fatal("malformed payload accepted")
	}
}
