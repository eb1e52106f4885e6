package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smokeConfig shrinks every workload (N / 64, one best-of group of rounds, one job of each
// kind per client and phase) so all of them run under `go test .` in this directory.
func smokeConfig(t *testing.T, seed int64, trace bool) config {
	return config{seed: seed, trace: trace, procs: benchProcs(), setups: 1, scale: 64, rounds: bestOfRounds, outDir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func smoke(t *testing.T, workload string, cfg config) *result {
	t.Helper()
	r, err := runWorkload(workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("%s: %d of %d ops failed: %s", workload, r.Failed, r.Attempted, r.FirstFailure)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		switch {
		case !nameRE.MatchString(d.name):
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", workload, d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, declared %q", workload, d.name, v.Unit, d.unit)
		case !cfg.trace && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, d.name, v.Value)
		case !reaches(d, workload) && v.Value != 0:
			t.Errorf("%s: %s = %v on a workload declared to bypass its layer", workload, d.name, v.Value)
		}
	}
	return r
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			first := smoke(t, w.name, smokeConfig(t, 1, false))
			again := smoke(t, w.name, smokeConfig(t, 1, false))
			if first.Attempted != again.Attempted {
				t.Errorf("same seed, different op counts: %d then %d", first.Attempted, again.Attempted)
			}
		})
	}
}

// value reads one metric of a traced smoke result.
func value(r *result, name string) float64 { return r.Metrics[name].Value }

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, 1, true)
			first := smoke(t, w.name, cfg)
			again := smoke(t, w.name, smokeConfig(t, 1, true))
			for _, d := range perLayer {
				if d.exact && value(first, d.name) != value(again, d.name) {
					t.Errorf("same seed, %s = %v then %v", d.name, value(first, d.name), value(again, d.name))
				}
			}

			// The bypass predictions, measured rather than declared.
			switch w.name {
			case wDoallHeavy, wListWalk:
				for _, name := range []string{"tsmem.stamped_stores_per_op", "tsmem.checkpoint_words_per_op",
					"tsmem.undone_words_per_op", "pdtest.tests_per_op", "speculate.strips_per_op"} {
					if v := value(first, name); v != 0 {
						t.Errorf("%s = %v, predicted 0", name, v)
					}
				}
			case wSpecLight:
				if v := value(first, "pdtest.fail_ratio"); v != 0 {
					t.Errorf("pdtest.fail_ratio = %v on a clean loop", v)
				}
				if v := value(first, "pdtest.tests_per_op"); v == 0 {
					t.Error("pdtest.tests_per_op = 0 on a speculative loop")
				}
			case wSpecRewind:
				if v := value(first, "pdtest.fail_ratio"); v <= 0 {
					t.Errorf("pdtest.fail_ratio = %v with seeded dependences", v)
				}
				if v := value(first, "speculate.prefix_committed_per_op"); v <= 0 {
					t.Errorf("speculate.prefix_committed_per_op = %v, the recovery kept nothing", v)
				}
			}

			// The span file: every span closed, every parent earlier.
			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			for i, s := range tf.Spans {
				if s.ID != i+1 || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Name == "" {
					t.Fatalf("malformed span %+v at index %d", s, i)
				}
			}
		})
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	cfg := smokeConfig(t, 1, false)
	other := cfg
	other.seed = 2
	for _, w := range facadeWorkloads {
		a, err := newFacade(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newFacade(w, cfg)
		c, _ := newFacade(w, other)
		if !a.oracle[0].Equal(b.oracle[0]) {
			t.Errorf("%s: same seed, different oracle arrays", w)
		}
		if a.oracle[0].Equal(c.oracle[0]) {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", w)
		}
		a.close()
		b.close()
		c.close()
	}
	a, err := newServeMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	c, err := newServeMix(other)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if reflect.DeepEqual(a.(*serveMix).order, c.(*serveMix).order) {
		t.Error("serve-mix: seeds 1 and 2 generate the same job order")
	}
}

// TestManifest pins BENCHMARK.json to the tables the program measures by.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, the program runs %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the program has %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d is %+v, the program has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v, the program has %v (at most 0.25)", g.Name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

func TestCompare(t *testing.T) {
	doc := func(runMs float64, failed int) *document {
		r := &result{Attempted: 10, Failed: failed, Metrics: map[string]metricValue{
			"run_ms_p50":     {Value: runMs, Unit: "ms"},
			"speedup_vs_seq": {Value: 2, Unit: "ratio"},
		}}
		return &document{Workloads: map[string]*result{wSpecLight: r}}
	}
	var out bytes.Buffer
	if code := compareDocuments(doc(10, 0), doc(10.5, 0), &out); code != 0 {
		t.Errorf("5%% slower is within the bound, got exit %d: %s", code, out.String())
	}
	out.Reset()
	if code := compareDocuments(doc(10, 0), doc(13, 0), &out); code != 1 || !strings.Contains(out.String(), "spec-light run_ms_p50") {
		t.Errorf("30%% slower must be named, got exit %d: %s", code, out.String())
	}
	out.Reset()
	if code := compareDocuments(doc(10, 0), doc(10, 1), &out); code != 1 || !strings.Contains(out.String(), "failed share rose") {
		t.Errorf("a new failure must be named, got exit %d: %s", code, out.String())
	}
}
