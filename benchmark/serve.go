package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"whilepar"
	"whilepar/internal/frontend"
	"whilepar/internal/loopir"
	"whilepar/internal/mem"
	"whilepar/internal/serve"
)

// The two interpreted programs of serve-mix.  Neither loop's exit depends
// on array contents, because serve builds each job's arrays itself
// (frontend.AutoEnv) and a client can only check the reported Valid.
const (
	// cleanMapSrc is an independent map: no unknown accesses.
	cleanMapSrc = `while (i < n) {
    b[i] = 2*a[i] + 1
    i = i + 1
}`
	// trackSrc is the TRACK FPTRAK loop 300 shape: a conditional error
	// exit (never taken here: residual stays below limit) and a
	// subscripted subscript, which sends state through the PD test.
	trackSrc = `while (i < n) {
    err = residual(obs[i], pred[i])
    if (err > limit) exit
    state[idx[i]] = smooth(state[idx[i]], obs[i])
    i = i + 1
}`
)

// jobsPerPhase is how many jobs each client submits per phase (a
// multiple of the four kinds; tests scale it down to one of each).  Short
// phases give the window enough rounds for best-of-bestOfRounds samples.
const jobsPerPhase = 8

// strategyOf names each variant the way JobSpec.Strategy spells it.
var strategyOf = [nVariants]string{vSeq: "sequential", vPinned: "speculate", vDefault: ""}

// jobKind is one of the four specs of the mix.
type jobKind struct {
	name  string
	valid int               // the sequential oracle's Valid
	body  [nVariants][]byte // the marshalled JobSpec per variant
}

// nativeInput is the state one in-flight native job works on: built once
// per set-up, reset inside the job, compared with the oracle after it.
type nativeInput struct {
	in, out, pristine, want *mem.Array
}

// serveMix is one set-up of the serve-mix workload: what `whilepard
// -smoke` boots, in process, plus the benchmark's two native bodies.
type serveMix struct {
	cfg    config
	sch    *serve.Scheduler
	srv    *httptest.Server
	client *http.Client
	kinds  []jobKind
	// order[c] is client c's seeded job sequence (indices into kinds);
	// every variant of a round replays the same stretch of it.
	order    [][]int
	perPhase int // jobs each client submits per phase

	saxpyFree, walkFree chan *nativeInput
	walkHead            *whilepar.Node
}

// jobRecord is what a client observed about one job.
type jobRecord struct {
	kind, client                 int
	sent, posted, done           time.Time // POST sent, POST answered, terminal line read
	submitted, started, finished time.Time // serve.Status timestamps
	bytes                        int
	valid                        int
	fail                         string
}

func newServeMix(cfg config) (instance, error) {
	rng := newRand(cfg.seed, wServeMix)
	s := &serveMix{cfg: cfg, perPhase: jobsPerPhase / cfg.scale}
	maxIter, saxpyN, walkN := 16384/cfg.scale, 65536/cfg.scale, 20000/cfg.scale

	// Native inputs: one per in-flight slot, so jobs never share state;
	// the oracle is each native's loop run sequentially by hand.
	s.saxpyFree = make(chan *nativeInput, cfg.procs)
	s.walkFree = make(chan *nativeInput, cfg.procs)
	s.walkHead = whilepar.BuildList(walkN, func(int) (val, work float64) {
		return 0.1 + 0.8*rng.Float64(), float64(light/2 + rng.Intn(light+1))
	})
	a0, b0 := uniform(rng, "a", saxpyN), uniform(rng, "b", saxpyN)
	sx := &nativeInput{in: a0, out: b0.Clone(), pristine: b0}
	wk := &nativeInput{out: mem.NewArray("out", walkN), pristine: mem.NewArray("out", walkN)}
	saxpyValid := sequentialOracle(s.saxpyLoop(sx))
	walkValid := sequentialOracle(s.walkLoop(wk))
	sx.want, wk.want = sx.out.Clone(), wk.out.Clone()
	for i := 0; i < cfg.procs; i++ {
		s.saxpyFree <- &nativeInput{in: a0, out: b0.Clone(), pristine: b0, want: sx.want}
		s.walkFree <- &nativeInput{out: mem.NewArray("out", walkN), pristine: wk.pristine, want: wk.want}
	}
	serve.RegisterNative("bench.saxpy", s.saxpy)
	serve.RegisterNative("bench.listwalk", s.listwalk)

	specs := []struct {
		name  string
		spec  serve.JobSpec
		valid int
	}{
		{"while-map", serve.JobSpec{Kind: "while", Program: cleanMapSrc, MaxIter: maxIter}, 0},
		{"while-track", serve.JobSpec{Kind: "while", Program: trackSrc, MaxIter: maxIter}, 0},
		{"bench.saxpy", serve.JobSpec{Kind: "native", Native: "bench.saxpy"}, saxpyValid},
		{"bench.listwalk", serve.JobSpec{Kind: "native", Native: "bench.listwalk"}, walkValid},
	}
	for _, sp := range specs {
		k := jobKind{name: sp.name, valid: sp.valid}
		if sp.spec.Kind == "while" {
			prog, err := compileProgram(sp.spec.Program, maxIter)
			if err != nil {
				return nil, err
			}
			if k.valid, err = prog.RunSequential(); err != nil {
				return nil, fmt.Errorf("%s oracle: %w", sp.name, err)
			}
		}
		for v := variant(0); v < nVariants; v++ {
			sp.spec.Strategy = strategyOf[v]
			k.body[v], _ = json.Marshal(sp.spec)
		}
		s.kinds = append(s.kinds, k)
	}

	// Seeded job order: every stretch of len(kinds) jobs holds each kind
	// once, so every phase sees the same mix.
	if s.perPhase < len(s.kinds) {
		s.perPhase = len(s.kinds)
	}
	s.order = make([][]int, cfg.procs)
	for c := range s.order {
		for len(s.order[c]) < 4096 {
			s.order[c] = append(s.order[c], rng.Perm(len(s.kinds))...)
		}
	}

	s.sch = serve.NewScheduler(serve.Config{Procs: cfg.procs, MaxInFlight: cfg.procs,
		Profiles: whilepar.NewProfileStore()})
	s.srv = httptest.NewServer(serve.NewHandler(s.sch))
	s.client = s.srv.Client()

	// Warm-up: enough phases per variant for every kind to run
	// warmupOps times, past the autotune ladder's steady tier.
	perKind := s.perPhase / len(s.kinds) * cfg.procs
	for v := variant(0); v < nVariants; v++ {
		for done := 0; done < warmupOps[v]; done += perKind {
			for _, j := range s.phase(v, 0) {
				if j.fail != "" {
					s.close()
					return nil, fmt.Errorf("warm-up job: %s", j.fail)
				}
			}
		}
	}
	return s, nil
}

func compileProgram(src string, maxIter int) (*frontend.Program, error) {
	ast, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	an, err := frontend.Analyze(ast)
	if err != nil {
		return nil, err
	}
	return frontend.Compile(ast, an, frontend.AutoEnv(ast, maxIter), maxIter)
}

func (s *serveMix) close() {
	s.srv.Close()
	s.sch.Close()
}

func (s *serveMix) saxpyLoop(in *nativeInput) *whilepar.IntLoop {
	return &whilepar.IntLoop{
		Class: whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RV},
		Disp:  whilepar.IntInduction{C: 1},
		Body: func(it *whilepar.Iter, d int) bool {
			it.Store(in.out, d, spin(0.5*it.Load(in.in, d)+0.5*it.Load(in.out, d), light))
			return true
		},
		Max: in.out.Len(),
	}
}

func (s *serveMix) walkLoop(in *nativeInput) whilepar.ListLoop {
	return whilepar.ListLoop{Head: s.walkHead,
		Class: whilepar.Class{Dispatcher: whilepar.GeneralRecurrence, Terminator: whilepar.RI},
		Body: func(it *whilepar.Iter, node *whilepar.Node) bool {
			it.Store(in.out, node.Key, spin(node.Val, int(node.Work)))
			return true
		}}
}

// native runs one native job on a free input slot and fails the job if
// its arrays differ from the sequential oracle's.
func native(free chan *nativeInput, run func(*nativeInput) (whilepar.Report, error)) (whilepar.Report, error) {
	in := <-free
	defer func() { free <- in }()
	copy(in.out.Data, in.pristine.Data)
	rep, err := run(in)
	if err == nil && !in.out.Equal(in.want) {
		err = errors.New("array differs from the sequential oracle's")
	}
	return rep, err
}

// saxpy is the bench.saxpy native: out[i] = f(in[i], out[i]), light body,
// speculative because out is written in place under an RV class.
func (s *serveMix) saxpy(ctx context.Context, opt whilepar.Options, _ map[string]float64) (whilepar.Report, error) {
	return native(s.saxpyFree, func(in *nativeInput) (whilepar.Report, error) {
		opt.Shared, opt.Tested = []*mem.Array{in.out}, []*mem.Array{in.out}
		return whilepar.RunInductionContext(ctx, s.saxpyLoop(in), opt)
	})
}

// listwalk is the bench.listwalk native: a list traversal, one store per
// node.
func (s *serveMix) listwalk(ctx context.Context, opt whilepar.Options, _ map[string]float64) (whilepar.Report, error) {
	return native(s.walkFree, func(in *nativeInput) (whilepar.Report, error) {
		l := s.walkLoop(in)
		return whilepar.RunListContext(ctx, l.Head, l.Body, l.Class, opt)
	})
}

// phase has every client submit the perPhase jobs of its sequence that
// start at position at, as variant v, closed loop: the next POST goes out
// when the previous job's terminal stream line has been read.  It returns
// the jobs in client order.
func (s *serveMix) phase(v variant, at int) []jobRecord {
	jobs := make([][]jobRecord, s.cfg.procs)
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, kind := range s.order[c][at : at+s.perPhase] {
				jobs[c] = append(jobs[c], s.job(c, kind, v))
			}
		}(c)
	}
	wg.Wait()
	var all []jobRecord
	for _, js := range jobs {
		all = append(all, js...)
	}
	return all
}

// job submits one job and follows its stream to the terminal line.
func (s *serveMix) job(client, kind int, v variant) (j jobRecord) {
	k := s.kinds[kind]
	j = jobRecord{kind: kind, client: client, sent: time.Now()}
	defer func() {
		if j.fail != "" {
			j.fail = k.name + ": " + j.fail
		}
	}()
	resp, err := s.client.Post(s.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(k.body[v]))
	if err != nil {
		j.fail = err.Error()
		return j
	}
	var accepted struct{ ID, Error string }
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	j.posted = time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		j.fail = fmt.Sprintf("submit: HTTP %d %s %v", resp.StatusCode, accepted.Error, err)
		return j
	}

	resp, err = s.client.Get(s.srv.URL + "/v1/jobs/" + accepted.ID + "/stream")
	if err != nil {
		j.fail = err.Error()
		return j
	}
	defer resp.Body.Close()
	var st serve.Status
	for rd := bufio.NewReader(resp.Body); ; {
		line, err := rd.ReadBytes('\n')
		j.bytes += len(line)
		if len(line) > 1 {
			if jerr := json.Unmarshal(line, &st); jerr != nil {
				j.fail = "stream: " + jerr.Error()
				return j
			}
			if st.State == "done" || st.State == "failed" || st.State == "canceled" {
				break
			}
		}
		if err != nil {
			j.fail = "stream ended before a terminal state: " + err.Error()
			return j
		}
	}
	j.done = time.Now()
	j.submitted, j.started, j.finished = st.Submitted, st.Started, st.Finished
	switch {
	case st.State != "done":
		j.fail = fmt.Sprintf("terminal state %s: %s", st.State, st.Error)
	case st.Report == nil || st.Report.Valid != k.valid:
		j.fail = fmt.Sprintf("report %+v, oracle valid %d", st.Report, k.valid)
	default:
		j.valid = st.Report.Valid
	}
	return j
}

// phaseStats accumulates one variant's phases.
type phaseStats struct {
	latency samples // every job
	medians samples // each phase's median job latency
	walls   samples // each phase's wall time
	valid   int     // valid iterations of every job
	jobs    []jobRecord
}

// window runs rounds of one phase per variant until the time box closes;
// tr, when set, receives each job's spans.
func (s *serveMix) window(cfg config, r *result, tr *tracer) (stats [nVariants]phaseStats, allocBytes uint64) {
	var before, after runtime.MemStats
	at := 0
	for w := newWindow(cfg); w.next(); at += s.perPhase {
		if at+s.perPhase > len(s.order[0]) {
			at = 0
		}
		for v := variant(0); v < nVariants; v++ {
			if v == vDefault {
				runtime.ReadMemStats(&before)
			}
			t0 := time.Now()
			jobs := s.phase(v, at)
			stats[v].walls = append(stats[v].walls, time.Since(t0))
			if v == vDefault {
				runtime.ReadMemStats(&after)
				allocBytes += after.TotalAlloc - before.TotalAlloc
			}
			var phase samples
			for _, j := range jobs {
				r.Attempted++
				if j.fail != "" {
					r.fail("%s", j.fail)
					continue
				}
				phase = append(phase, j.done.Sub(j.sent))
				stats[v].valid += j.valid
				if tr != nil {
					jobSpans(tr, r.Attempted, j)
				}
			}
			stats[v].latency = append(stats[v].latency, phase...)
			stats[v].medians = append(stats[v].medians, phase.median())
			if tr != nil {
				stats[v].jobs = append(stats[v].jobs, jobs...)
			}
		}
	}
	return stats, allocBytes
}

// timed: a sample of a median is the fastest of bestOfRounds consecutive
// phases' median job latencies; the throughput is a phase's valid
// iterations (every phase holds the same mix) over the same kind of sample
// of the default phases' wall times.
func (s *serveMix) timed(cfg config, r *result) {
	stats, allocBytes := s.window(cfg, r, nil)
	var best [nVariants]samples
	for v := range stats {
		best[v] = stats[v].medians.bestOf(bestOfRounds)
	}
	def := stats[vDefault]
	phaseValid := ratio(float64(def.valid), float64(len(def.walls)))
	r.setTimed(best, ratio(phaseValid, def.walls.bestOf(bestOfRounds).median().Seconds()),
		ratio(float64(allocBytes)/1024, float64(len(def.latency))))
}

// jobSpans records one job as the client and serve.Status saw it: the
// POST, the queue wait, the execution, and the stream read.
func jobSpans(tr *tracer, op int, j jobRecord) {
	root := tr.begin(op, 0, "job")
	s := &tr.spans[root-1]
	s.StartNs, s.EndNs = tr.since(j.sent), tr.since(j.done)
	for _, c := range []struct {
		name     string
		from, to time.Time
	}{
		{"client.post", j.sent, j.posted},
		{"serve.queued", j.submitted, j.started},
		{"serve.running", j.started, j.finished},
		{"client.stream", j.posted, j.done},
	} {
		tr.add(span{Parent: root, Op: op, Name: c.name, StartNs: tr.since(c.from), EndNs: tr.since(c.to)})
	}
}

func (s *serveMix) traced(cfg config, r *result) error {
	loopirCosts(r, 16384/cfg.scale)
	schedPoolCosts(r, cfg.procs, true)
	if err := s.frontendCosts(r); err != nil {
		return err
	}
	if err := s.submitCost(r); err != nil {
		return err
	}

	tr := newTracer()
	rejected := s.sch.Stats()
	stats, _ := s.window(cfg, r, tr)
	def := stats[vDefault]
	var queue, run, overhead samples
	bytes := 0
	for _, j := range def.jobs {
		if j.fail != "" {
			continue
		}
		queue = append(queue, j.started.Sub(j.submitted))
		run = append(run, j.finished.Sub(j.started))
		overhead = append(overhead, j.done.Sub(j.sent)-j.finished.Sub(j.submitted))
		bytes += j.bytes
	}
	now := s.sch.Stats()
	r.set("serve.queue_wait_ms_p50", ms(queue.median()))
	r.set("serve.queue_wait_ms_p95", ms(queue.percentile(0.95)))
	r.set("serve.run_ms_p50", ms(run.median()))
	r.set("serve.http_overhead_ms_p50", ms(overhead.median()))
	r.set("serve.submit_done_ms_p99", ms(def.latency.percentile(0.99)))
	r.set("serve.jobs_per_s", ratio(float64(len(def.latency)), def.walls.sum().Seconds()))
	r.set("whole.run_ms_p90", ms(def.latency.percentile(0.9)))
	r.set("whole.iters_per_s_mean", ratio(float64(def.valid), def.walls.sum().Seconds()))
	r.set("serve.status_bytes_per_job", ratio(float64(bytes), float64(len(queue))))
	r.set("serve.rejected_per_run", float64(now.RejectedRate+now.RejectedQueue-rejected.RejectedRate-rejected.RejectedQueue))
	r.Samples["default jobs"] = len(def.latency)
	return tr.write(cfg, wServeMix, nil)
}

// frontendCosts times the front end's public steps on the mix's two
// programs, and the interpreter against the same loop written in Go.
func (s *serveMix) frontendCosts(r *result) error {
	n := 16384 / s.cfg.scale
	var parse, analyze, compile, interp float64
	srcs := []string{cleanMapSrc, trackSrc}
	for _, src := range srcs {
		var (
			ast  *frontend.LoopAST
			an   *frontend.Analysis
			prog *frontend.Program
			err  error
		)
		parse += ns(medianOf(layerReps, func() time.Duration {
			return timeIt(func() { ast, err = frontend.Parse(src) })
		}))
		if err != nil {
			return err
		}
		analyze += ns(medianOf(layerReps, func() time.Duration {
			return timeIt(func() { an, err = frontend.Analyze(ast) })
		}))
		if err != nil {
			return err
		}
		compile += ns(medianOf(layerReps, func() time.Duration {
			return timeIt(func() { prog, err = frontend.Compile(ast, an, frontend.AutoEnv(ast, n), n) })
		}))
		if err != nil {
			return err
		}
		valid := 0
		d := medianOf(layerReps, func() time.Duration {
			return timeIt(func() { valid, err = prog.RunSequential() })
		})
		if err != nil {
			return err
		}
		interp += ratio(ns(d), float64(valid))
	}
	k := float64(len(srcs))
	r.set("frontend.parse_ns", parse/k)
	r.set("frontend.analyze_ns", analyze/k)
	r.set("frontend.compile_ns", compile/k)
	r.set("frontend.interp_ns_per_iter", interp/k)

	// The interpreter tax, on the clean map: interpreted over hand-written.
	prog, err := compileProgram(cleanMapSrc, n)
	if err != nil {
		return err
	}
	interpreted := medianOf(layerReps, func() time.Duration {
		return timeIt(func() { _, err = prog.RunSequential() })
	})
	a, b := mem.NewArray("a", n), mem.NewArray("b", n)
	native := medianOf(layerReps, func() time.Duration {
		return timeIt(func() {
			for i := 0; i < n; i++ {
				it := loopir.Iter{Index: i}
				it.Store(b, i, 2*it.Load(a, i)+1)
			}
		})
	})
	r.set("frontend.interp_tax_ratio", ratio(ns(interpreted), ns(native)))
	return err
}

// submitCost times Scheduler.Submit directly — compile plus admission —
// on a scheduler of its own, so the jobs it queues stay out of the mix.
func (s *serveMix) submitCost(r *result) error {
	const submits = 48 // below the default queue depth of 64
	sch := serve.NewScheduler(serve.Config{Procs: 1, MaxInFlight: 1})
	defer sch.Close()
	spec := serve.JobSpec{Kind: "while", Program: cleanMapSrc, MaxIter: 16384 / s.cfg.scale}
	var times samples
	for i := 0; i < submits; i++ {
		t0 := time.Now()
		_, err := sch.Submit(spec)
		times = append(times, time.Since(t0))
		if err != nil {
			return fmt.Errorf("serve.Submit: %w", err)
		}
	}
	r.set("serve.submit_ns", ns(times.median()))
	return nil
}
