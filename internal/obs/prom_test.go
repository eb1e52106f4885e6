package obs

import (
	"strings"
	"testing"
)

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Issued":               "issued",
		"PDTests":              "pd_tests",
		"CtxCancels":           "ctx_cancels",
		"MaxGuidedChunk":       "max_guided_chunk",
		"SigFalsePositives":    "sig_false_positives",
		"DeltaCheckpointWords": "delta_checkpoint_words",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCountersCoverEveryScalarField(t *testing.T) {
	m := NewMetrics()
	m.IterIssued(10)
	m.IterExecutedN(1, 7)
	m.SpecAttempt()
	m.SpecAbort("pd-test failed")
	s := m.Snapshot()

	cs := s.Counters()
	byName := map[string]int64{}
	for _, c := range cs {
		if _, dup := byName[c.Name]; dup {
			t.Fatalf("duplicate counter name %q", c.Name)
		}
		byName[c.Name] = c.Value
	}
	if byName["issued"] != 10 || byName["executed"] != 7 ||
		byName["spec_attempts"] != 1 || byName["spec_aborts"] != 1 {
		t.Fatalf("counters = %v", byName)
	}
	// Every int64 field must be present (the reflection sweep is the
	// point: new counters appear without touching consumers).
	for _, want := range []string{"pd_tests", "ctx_cancels", "worker_panics", "probe_runs"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("counter %q missing from Counters()", want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	m := NewMetrics()
	m.IterIssued(3)
	m.IterExecutedN(0, 1)
	m.IterExecutedN(2, 1)
	m.SpecAbort("violation")
	var b strings.Builder
	if err := WritePrometheus(&b, "whilepard", m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE whilepard_issued counter\nwhilepard_issued 3\n",
		"whilepard_executed 2\n",
		"whilepard_vpn_busy{vpn=\"0\"} 1\n",
		"whilepard_vpn_busy{vpn=\"2\"} 1\n",
		"whilepard_abort_reason{reason=\"violation\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := NewMetrics()
	a.IterIssued(5)
	a.IterExecutedN(0, 1)
	a.SpecAbort("x")
	b := NewMetrics()
	b.IterIssued(7)
	b.IterExecutedN(3, 1)
	b.SpecAbort("x")
	b.SpecAbort("y")

	sum := a.Snapshot().Add(b.Snapshot())
	if sum.Issued != 12 || sum.Executed != 2 {
		t.Fatalf("sum = %+v", sum)
	}
	if len(sum.VPNBusy) != 4 || sum.VPNBusy[0] != 1 || sum.VPNBusy[3] != 1 {
		t.Fatalf("VPNBusy = %v", sum.VPNBusy)
	}
	if sum.AbortReasons["x"] != 2 || sum.AbortReasons["y"] != 1 {
		t.Fatalf("AbortReasons = %v", sum.AbortReasons)
	}
}
