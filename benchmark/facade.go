package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"whilepar"
	"whilepar/internal/sched"
)

// facade is one set-up of a workload that goes through whilepar.Run.
type facade struct {
	name  string
	procs int
	n     int // iteration-space bound (Loop.Max, or the list length)
	valid int // the sequential oracle's valid-iteration count

	// build returns the loop value whilepar.Run takes; a non-nil meter
	// wraps the body so the traced run can time it per worker.
	build func(m *bodyMeter) any
	loop  any // build(nil)

	// state lists the arrays an op writes; pristine and oracle hold
	// their contents before an op and after the sequential oracle's.
	state, pristine, oracle []*whilepar.Array
	shared, tested          []*whilepar.Array

	opts [nVariants]whilepar.Options
	// pool backs the strip-engine replays of the traced run, as the
	// pool core spawns per auto-tuned execution does.
	pool *sched.Pool
}

// uniform fills a new array with seeded values in (0.1, 0.9).
func uniform(rng *rand.Rand, name string, n int) *whilepar.Array {
	a := whilepar.NewArray(name, n)
	for i := range a.Data {
		a.Data[i] = 0.1 + 0.8*rng.Float64()
	}
	return a
}

// exitAt places the exit at 7/8 of the space, moved by the seed within
// +-n/512 so that timings stay comparable across seeds.
func exitAt(rng *rand.Rand, n int) int {
	e := n * 7 / 8
	if j := n / 512; j > 0 {
		e += rng.Intn(2*j) - j
	}
	return e
}

func intLoop(class whilepar.Class, n int, cond func(int) bool, body func(*whilepar.Iter, int) bool) func(*bodyMeter) any {
	return func(m *bodyMeter) any {
		b := body
		if m != nil {
			b = func(it *whilepar.Iter, d int) bool {
				t0, timed := m.enter(it.VPN)
				ok := body(it, d)
				m.leave(it.VPN, t0, timed)
				return ok
			}
		}
		return &whilepar.IntLoop{Class: class, Disp: whilepar.IntInduction{C: 1}, Cond: cond, Body: b, Max: n}
	}
}

func newFacade(name string, cfg config) (*facade, error) {
	rng := newRand(cfg.seed, name)
	f := &facade{name: name, procs: cfg.procs, pool: sched.NewPool(cfg.procs)}
	pinned := whilepar.StrategySpeculate

	switch name {
	case wDoallHeavy:
		f.n = 65536 / cfg.scale
		exit := exitAt(rng, f.n)
		in := uniform(rng, "in", f.n)
		out := whilepar.NewArray("out", f.n)
		f.state = []*whilepar.Array{out}
		f.build = intLoop(
			whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RI, ThresholdOnMonotonic: true},
			f.n, func(d int) bool { return d < exit },
			func(it *whilepar.Iter, d int) bool {
				it.Store(out, d, spin(in.Data[d], heavy))
				return true
			})

	case wSpecLight, wSpecRewind:
		f.n, pinned = 262144/cfg.scale, whilepar.StrategySpeculate
		units := light
		if name == wSpecRewind {
			f.n, pinned, units = 32768/cfg.scale, whilepar.StrategyRecover, heavy
		}
		exit := exitAt(rng, f.n)
		a := uniform(rng, "A", f.n)
		a.Data[exit] = -1 // the RV exit: iteration `exit` reads it and stops before storing
		// dep[i]: iteration i also reads A[i-1], a true flow dependence.
		dep := make([]bool, f.n)
		if name == wSpecRewind {
			for k := 1; k <= 4; k++ {
				at := k * exit / 5
				if j := f.n / 256; j > 0 {
					at += rng.Intn(2*j) - j
				}
				dep[at] = true
			}
		}
		f.state, f.shared, f.tested = []*whilepar.Array{a}, []*whilepar.Array{a}, []*whilepar.Array{a}
		f.build = intLoop(
			whilepar.Class{Dispatcher: whilepar.MonotonicInduction, Terminator: whilepar.RV},
			f.n, nil,
			func(it *whilepar.Iter, d int) bool {
				v := it.Load(a, d)
				if v < 0 {
					return false
				}
				if dep[d] {
					v = 0.5*v + 0.5*it.Load(a, d-1)
				}
				it.Store(a, d, spin(v, units))
				return true
			})

	case wListWalk:
		f.n = 100000 / cfg.scale
		head := whilepar.BuildList(f.n, func(int) (val, work float64) {
			return 0.1 + 0.8*rng.Float64(), float64(mid/2 + rng.Intn(mid+1))
		})
		out := whilepar.NewArray("out", f.n)
		f.state = []*whilepar.Array{out}
		body := func(it *whilepar.Iter, node *whilepar.Node) bool {
			it.Store(out, node.Key, spin(node.Val, int(node.Work)))
			return true
		}
		f.build = func(m *bodyMeter) any {
			b := whilepar.ListBody(body)
			if m != nil {
				b = func(it *whilepar.Iter, node *whilepar.Node) bool {
					t0, timed := m.enter(it.VPN)
					ok := body(it, node)
					m.leave(it.VPN, t0, timed)
					return ok
				}
			}
			return whilepar.ListLoop{Head: head, Body: b,
				Class: whilepar.Class{Dispatcher: whilepar.GeneralRecurrence, Terminator: whilepar.RI}}
		}

	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	f.loop = f.build(nil)

	base := whilepar.Options{Procs: f.procs, Shared: f.shared, Tested: f.tested}
	f.opts[vSeq], f.opts[vPinned], f.opts[vDefault] = base, base, base
	f.opts[vSeq].Strategy = whilepar.StrategySequential
	f.opts[vPinned].Strategy, f.opts[vPinned].Validation = pinned, whilepar.ValidationFull
	f.opts[vDefault].Profiles = whilepar.NewProfileStore()

	// The oracle: the loop run sequentially by hand on the pristine state.
	for _, a := range f.state {
		f.pristine = append(f.pristine, a.Clone())
	}
	f.valid = sequentialOracle(f.loop)
	for _, a := range f.state {
		f.oracle = append(f.oracle, a.Clone())
	}

	for v := variant(0); v < nVariants; v++ {
		for i := 0; i < warmupOps[v]; i++ {
			if _, why := f.op(f.loop, f.opts[v]); why != "" {
				f.close()
				return nil, fmt.Errorf("warm-up op: %s", why)
			}
		}
	}
	return f, nil
}

// sequentialOracle runs the loop as the original WHILE loop and returns
// its valid-iteration count.
func sequentialOracle(loop any) int {
	switch l := loop.(type) {
	case *whilepar.IntLoop:
		return whilepar.LastValidInt(l)
	case whilepar.ListLoop:
		i := 0
		for pt := l.Head; pt != nil; pt = pt.Next {
			if !l.Body(&whilepar.Iter{Index: i}, pt) {
				break
			}
			i++
		}
		return i
	}
	panic(fmt.Sprintf("benchmark: no oracle for %T", loop))
}

func (f *facade) close() { f.pool.Close() }

// reset puts the written arrays back to their pristine contents; it runs
// outside every timed window.
func (f *facade) reset() {
	for i, a := range f.state {
		copy(a.Data, f.pristine[i].Data)
	}
}

// verify explains how an op's outcome differs from the oracle's, or
// returns "" when it does not.
func (f *facade) verify(valid int, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: error: %v", f.name, err)
	}
	if valid != f.valid {
		return fmt.Sprintf("%s: valid = %d, oracle %d", f.name, valid, f.valid)
	}
	for i, a := range f.state {
		if !a.Equal(f.oracle[i]) {
			return fmt.Sprintf("%s: array %s differs from the sequential oracle's", f.name, a.Name)
		}
	}
	return ""
}

// run is the one call site of whilepar.Run, so every default op — warm-up,
// timed or traced — finds the same call-site profile.
func (f *facade) run(loop any, opt whilepar.Options) (whilepar.Report, time.Duration, error) {
	t0 := time.Now()
	rep, err := whilepar.Run(loop, opt)
	return rep, time.Since(t0), err
}

// op resets the state, runs one facade op and verifies it.
func (f *facade) op(loop any, opt whilepar.Options) (time.Duration, string) {
	f.reset()
	rep, dt, err := f.run(loop, opt)
	return dt, f.verify(rep.Valid, err)
}

func (f *facade) timed(cfg config, r *result) {
	var (
		times      [nVariants]samples
		allocBytes uint64
		before     runtime.MemStats
		after      runtime.MemStats
	)
	for w := newWindow(cfg); w.next(); {
		for k := 0; k < int(nVariants); k++ {
			// Each round starts one variant later than the last, so that
			// nothing periodic lands on the same variant every round.
			v := variant((w.rounds + k) % int(nVariants))
			if v == vDefault {
				runtime.ReadMemStats(&before)
			}
			dt, why := f.op(f.loop, f.opts[v])
			if v == vDefault {
				runtime.ReadMemStats(&after)
				allocBytes += after.TotalAlloc - before.TotalAlloc
			}
			r.Attempted++
			if why != "" {
				r.fail("%s", why)
				continue
			}
			times[v] = append(times[v], dt)
		}
	}
	var best [nVariants]samples
	for v := range times {
		best[v] = times[v].bestOf(bestOfRounds)
	}
	r.setTimed(best, ratio(float64(f.valid), best[vDefault].median().Seconds()),
		ratio(float64(allocBytes)/1024, float64(len(times[vDefault]))))
}
