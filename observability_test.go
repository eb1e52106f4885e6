package whilepar

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"whilepar/internal/sched"
)

// TestMetricsExactCounts pins the observability layer to a fully
// deterministic speculative execution: one processor, dynamic
// self-scheduling, exit planted at q.  Every counter the run reports is
// then exactly computable by hand.
func TestMetricsExactCounts(t *testing.T) {
	const n, q = 100, 60
	a := NewArray("A", n)

	mk := func() *IntLoop {
		return &IntLoop{
			Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
			Disp:  IntInduction{C: 1},
			Body: func(it *Iter, i int) bool {
				// Store first, then test the exit: iteration q's store is
				// overshoot the undo machinery must roll back.
				it.Store(a, i, float64(i+1))
				return i != q
			},
			Max: n,
		}
	}

	m := NewMetrics()
	rep, err := RunInduction(mk(), Options{
		Procs:           1,
		InductionMethod: Induction2,
		Shared:          []*Array{a},
		Tested:          []*Array{a},
		Metrics:         m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedParallel || rep.Valid != q {
		t.Fatalf("report %+v", rep)
	}
	if rep.Metrics == nil {
		t.Fatal("Report.Metrics not populated despite Options.Metrics")
	}
	s := *rep.Metrics

	// One worker claims geometric chunks from the shared counter: sizes
	// 1,2,4,8 then the cap of n/8 = 12, so claim boundaries fall at
	// 1,3,7,15,27,39,51,63.  The QUIT at q=60 lands mid-chunk [51,63):
	// 61 iterations execute, 63 were issued, and no further chunk is
	// claimed.
	const wantIssued = 63
	if s.Issued != wantIssued {
		t.Errorf("Issued = %d, want %d", s.Issued, wantIssued)
	}
	if s.DynamicChunks != 8 || s.DynamicChunkIters != wantIssued {
		t.Errorf("dynamic chunks = %d (%d iters), want 8 (%d)",
			s.DynamicChunks, s.DynamicChunkIters, wantIssued)
	}
	if s.Executed != q+1 {
		t.Errorf("Executed = %d, want %d", s.Executed, q+1)
	}
	if s.Overshot != 1 || rep.Overshot != 1 {
		t.Errorf("Overshot = %d (report %d), want 1", s.Overshot, rep.Overshot)
	}
	if s.QuitsPosted != 1 {
		t.Errorf("QuitsPosted = %d, want 1", s.QuitsPosted)
	}
	// Iterations 0..q each stored one distinct location.
	if s.TrackedStores != q+1 || s.StampedStores != q+1 {
		t.Errorf("stores = %d/%d stamped, want %d/%d", s.TrackedStores, s.StampedStores, q+1, q+1)
	}
	// The single overshot store (A[q]) is undone; the checkpoint covered
	// the whole array.
	if s.Undone != 1 || rep.Undone != 1 {
		t.Errorf("Undone = %d (report %d), want 1", s.Undone, rep.Undone)
	}
	if s.Checkpoints != 1 || s.CheckpointWords != n {
		t.Errorf("checkpoints = %d (%d words), want 1 (%d)", s.Checkpoints, s.CheckpointWords, n)
	}
	if s.Restores != 0 {
		t.Errorf("Restores = %d, want 0", s.Restores)
	}
	if s.PDTests != 1 || s.PDPass != 1 || s.PDFail != 0 {
		t.Errorf("pd = %d/%d/%d, want 1/1/0", s.PDTests, s.PDPass, s.PDFail)
	}
	if s.SpecAttempts != 1 || s.SpecCommits != 1 || s.SpecAborts != 0 {
		t.Errorf("spec = %d/%d/%d, want 1/1/0", s.SpecAttempts, s.SpecCommits, s.SpecAborts)
	}
	var busy int64
	for _, b := range s.VPNBusy {
		busy += b
	}
	if busy != s.Executed {
		t.Errorf("sum(VPNBusy) = %d, want Executed = %d", busy, s.Executed)
	}

	// The memory effects match the sequential loop exactly.
	for i := 0; i < n; i++ {
		want := 0.0
		if i < q {
			want = float64(i + 1)
		}
		if a.Data[i] != want {
			t.Fatalf("A[%d] = %v, want %v", i, a.Data[i], want)
		}
	}
}

// TestChromeTraceEndToEnd runs an instrumented execution with the
// ChromeTracer and checks the emitted file is valid Chrome trace-event
// JSON carrying the expected event kinds.
func TestChromeTraceEndToEnd(t *testing.T) {
	const n, q = 200, 150
	a := NewArray("A", n)
	loop := &IntLoop{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
		Disp:  IntInduction{C: 1},
		Body: func(it *Iter, i int) bool {
			it.Store(a, i, 1)
			return i != q
		},
		Max: n,
	}
	tr := NewChromeTracer()
	rep, err := RunInduction(loop, Options{
		Procs:           4,
		InductionMethod: Induction2,
		Schedule:        Guided,
		Shared:          []*Array{a},
		Tested:          []*Array{a},
		Metrics:         NewMetrics(),
		Tracer:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != q {
		t.Fatalf("Valid = %d, want %d", rep.Valid, q)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
		if e.Ph != "X" && e.Ph != "i" {
			t.Errorf("unexpected phase %q on %q", e.Ph, e.Name)
		}
	}
	for _, want := range []string{"iter", "QUIT", "checkpoint", "undo", "pd-test", "speculation"} {
		if !seen[want] {
			t.Errorf("trace is missing %q events", want)
		}
	}
}

// TestOptionsScheduleValidated checks malformed options are rejected at
// the API boundary instead of silently running with a zero-value
// schedule.
func TestOptionsScheduleValidated(t *testing.T) {
	a := NewArray("A", 8)
	loop := &IntLoop{
		Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
		Disp:  IntInduction{C: 1},
		Body:  func(it *Iter, i int) bool { _ = it.Load(a, i); return true },
		Max:   8,
	}
	bad := Options{Procs: 2, Schedule: sched.Schedule(42)}
	if _, err := RunInduction(loop, bad); err == nil {
		t.Fatal("RunInduction accepted an invalid schedule")
	}
	head := BuildList(8, nil)
	if _, err := RunList(head, func(it *Iter, nd *Node) bool { return true }, Class{}, bad); err == nil {
		t.Fatal("RunList accepted an invalid schedule")
	}
}

// TestWorkerCountsThroughEngines checks the per-worker store and range
// counts end to end: the body counts, itself, every access it makes
// through a tracker, and after the run the Metrics must hold exactly
// that — on the whole-loop engine and on the stripped and pipelined
// strip engines, at every worker count.
func TestWorkerCountsThroughEngines(t *testing.T) {
	const n, q = 3000, 2900
	for _, s := range []Strategy{StrategySpeculate, StrategyRecover, StrategyPipeline} {
		for procs := 1; procs <= 4; procs++ {
			a, c := NewArray("A", n), NewArray("C", n)
			scratch, b := NewArray("scratch", n), NewArray("B", 4)
			var stores, ranges, elems atomic.Int64
			l := &IntLoop{
				Class: Class{Dispatcher: MonotonicInduction, Terminator: RV},
				Disp:  IntInduction{C: 1},
				Body: func(it *Iter, d int) bool {
					if d == q {
						return false
					}
					var in [4]float64
					it.LoadRange(b, 0, 4, in[:])
					it.Store(a, d, in[0]+1)
					it.Store(scratch, d, 1) // untracked: counted all the same
					it.StoreRange(c, d, in[:1])
					if it.Tracker != nil {
						stores.Add(3)
						ranges.Add(2)
						elems.Add(5)
					}
					return true
				},
				Max: n,
			}
			m := NewMetrics()
			rep, err := RunContext(context.Background(), l, Options{Procs: procs, Strategy: s,
				Validation: ValidationFull, Shared: []*Array{a, c}, Tested: []*Array{a}, Metrics: m})
			if err != nil || rep.Valid != q {
				t.Fatalf("%v p=%d: valid %d, err %v", s, procs, rep.Valid, err)
			}
			got := m.Snapshot()
			if got.TrackedStores != stores.Load() || got.BatchedRanges != ranges.Load() ||
				got.BatchedElems != elems.Load() {
				t.Fatalf("%v p=%d: stores %d, ranges %d (%d elems); the body made %d, %d (%d)", s, procs,
					got.TrackedStores, got.BatchedRanges, got.BatchedElems, stores.Load(), ranges.Load(), elems.Load())
			}
			if stores.Load() == 0 {
				t.Fatalf("%v p=%d: no tracked access at all", s, procs)
			}
			if got.Executed != got.Overshot+int64(q) || got.Issued < got.Executed {
				t.Fatalf("%v p=%d: issued %d executed %d overshot %d", s, procs, got.Issued, got.Executed, got.Overshot)
			}
		}
	}
}
