package main

import (
	"fmt"
	"runtime"
	"time"
)

// Body cost in spin units (one unit is one step of the logistic map in
// spin, about 3-4 ns).  Fixed, never calibrated, so iteration and op
// counts repeat exactly across hosts.
const (
	heavy = 300
	mid   = 100
	light = 20
)

// spin is every loop body's computation: units dependent steps of a
// chaotic map that keeps (0,1) inside (0,1), so results differ per
// element (a misplaced iteration shows in the array comparison) and the
// negative exit sentinel can never be produced by accident.
func spin(x float64, units int) float64 {
	for k := 0; k < units; k++ {
		x = 3.9 * (x * (1 - x))
	}
	return x
}

// variant is how an op is configured.
type variant int

const (
	vSeq     variant = iota // StrategySequential: the baseline
	vPinned                 // the engine the workload is named for, ValidationFull
	vDefault                // zero-valued Strategy/Validation: what a caller who tunes nothing gets
	nVariants
)

// p50Metric names each variant's median.
var p50Metric = [nVariants]string{vSeq: "seq_ms_p50", vPinned: "pinned_ms_p50", vDefault: "run_ms_p50"}

// bestOfRounds: a *_ms_p50 is the median over the fastest op of every
// bestOfRounds consecutive rounds (see samples.bestOf).
const bestOfRounds = 5

// Warm-up ops per variant before a set-up counts as done: the default
// variant needs enough runs for the autotune clean-streak ladder to reach
// its steady tier, the pinned ones only warm caches and arenas.
var warmupOps = [nVariants]int{vSeq: 2, vPinned: 2, vDefault: 12}

// config sizes one run.
type config struct {
	seed    int64
	seconds float64 // timed window per workload
	trace   bool
	procs   int
	setups  int    // set-up repetitions; the median is setup_s
	scale   int    // divides every iteration count (1 for real runs; tests shrink)
	rounds  int    // > 0: that many rounds instead of the time box (tests)
	outDir  string // where the span file goes
}

// benchProcs is the load size: min(host CPUs, 4) workers or clients.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// window decides when a timed window has run long enough.
type window struct {
	start  time.Time
	cfg    config
	rounds int
}

func newWindow(cfg config) *window { return &window{start: time.Now(), cfg: cfg} }

// next reports whether another round should run, and counts it.
func (w *window) next() bool {
	if w.cfg.rounds > 0 {
		if w.rounds >= w.cfg.rounds {
			return false
		}
	} else if w.rounds > 0 && time.Since(w.start).Seconds() >= w.cfg.seconds {
		return false
	}
	w.rounds++
	return true
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: the four exported JSON keys
// are the contract's result line, the rest feeds the human table.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the number of timings behind each percentile metric.
	Samples map[string]int `json:"-"`
	// FirstFailure explains the first failed op, for the human reader.
	FirstFailure string `json:"-"`

	values map[string]float64 // measured, before units are attached
}

func newResult() *result {
	return &result{Samples: map[string]int{}, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setTimed fills the end-to-end metrics both kinds of workload derive the
// same way from each variant's best-of-bestOfRounds samples.
func (r *result) setTimed(best [nVariants]samples, itersPerS, allocKBPerOp float64) {
	var med [nVariants]float64
	for v, s := range best {
		med[v] = ms(s.median())
		r.set(p50Metric[v], med[v])
		r.Samples[p50Metric[v]] = len(s)
	}
	r.set("speedup_vs_seq", ratio(med[vSeq], med[vDefault]))
	r.set("iters_per_s", itersPerS)
	r.set("alloc_kb_per_op", allocKBPerOp)
}

// fail counts one failed op and keeps the first reason.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if r.FirstFailure == "" {
		r.FirstFailure = fmt.Sprintf(format, args...)
	}
}

// seal attaches units and checks the metric set is exactly the declared
// one for this mode: every metric present, a bypassed layer's as 0.
func (r *result) seal(workload string, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && reaches(d, workload) {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		if ok && !reaches(d, workload) {
			return fmt.Errorf("%s: metric %s measured on a workload declared to bypass it", workload, d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("%s: undeclared metric %s", workload, name)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// timed runs the untraced window and fills the end-to-end metrics.
	timed(cfg config, r *result)
	// traced runs the traced window and fills the per-layer metrics.
	traced(cfg config, r *result) error
	close()
}

// setUp builds a workload's instance: inputs from the seed, oracle
// results, a booted server where there is one, and the warm-up ops.
func setUp(workload string, cfg config) (instance, error) {
	if workload == wServeMix {
		return newServeMix(cfg)
	}
	return newFacade(workload, cfg)
}

// runWorkload sets the workload up cfg.setups times (setup_s is the
// median), then measures the last instance.
func runWorkload(workload string, cfg config) (*result, error) {
	var (
		inst   instance
		setups samples
	)
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Every set-up allocates from a collected heap: whether the last
		// one's list nodes land in fresh spans or among an earlier set-up's
		// garbage moved list-walk's medians by 20% from run to run.
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = setUp(workload, cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", workload, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()
	runtime.GC() // set-up garbage is not the workload's

	r := newResult()
	if cfg.trace {
		if err := inst.traced(cfg, r); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", workload, err)
		}
	} else {
		inst.timed(cfg, r)
		r.set("setup_s", setups.median().Seconds())
		r.set("peak_rss_mb", peakRSSMiB())
	}
	if err := r.seal(workload, cfg.trace); err != nil {
		return nil, err
	}
	return r, nil
}
