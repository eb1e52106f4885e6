package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own calls into the layer.  Spans of one op share
// Op; Parent is the span that caused this one (0 for a root).  A
// per-worker aggregate of many short calls (the wrapped loop body)
// additionally carries the call count and the time inside them.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so the untraced twin of a replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// add records a finished span whose interval was measured elsewhere.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// traceFile is what the traced run leaves behind for one workload.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Procs    int    `json:"procs"`
	// LayerSelfNs is each layer's median self time per op of the
	// replay: span duration minus the part its children cover.
	LayerSelfNs map[string]float64 `json:"layer_self_ns,omitempty"`
	Spans       []span             `json:"spans"`
}

func (t *tracer) write(cfg config, workload string, layers map[string]float64) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(traceFile{Workload: workload, Seed: cfg.seed, Procs: cfg.procs,
		LayerSelfNs: layers, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+workload+".json"), append(out, '\n'), 0o644)
}

// meterSample: every meterSample-th body call of a worker is timed and
// the rest are only counted, so a light body is not drowned in clock
// reads; the busy estimate scales the timed share up.
const meterSample = 8

// meterSlot is one worker's tally, padded to its own cache lines.
type meterSlot struct {
	calls, timed int64
	busy         time.Duration
	_            [104]byte
}

// bodyMeter times the wrapped loop body per virtual processor.  Each slot
// is written only by the worker running as that vpn.
type bodyMeter struct {
	slots []meterSlot
	// clock is what timing an empty call reads, taken off every timed call.
	clock time.Duration
}

func newBodyMeter(procs int) *bodyMeter {
	m := &bodyMeter{slots: make([]meterSlot, procs)}
	const probes = 4096
	for i := 0; i < probes*meterSample; i++ {
		t0, timed := m.enter(0)
		m.leave(0, t0, timed)
	}
	m.clock = m.slots[0].busy / probes
	m.slots[0] = meterSlot{}
	return m
}

func (m *bodyMeter) enter(vpn int) (time.Time, bool) {
	s := &m.slots[vpn]
	s.calls++
	if s.calls%meterSample != 1 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (m *bodyMeter) leave(vpn int, t0 time.Time, timed bool) {
	if timed {
		s := &m.slots[vpn]
		s.busy += time.Since(t0)
		s.timed++
	}
}

// workerTally is one worker's body calls and estimated time inside them.
type workerTally struct {
	calls int64
	busy  time.Duration
}

// take returns every worker's tally since the last take and clears it.
func (m *bodyMeter) take() []workerTally {
	out := make([]workerTally, len(m.slots))
	for i := range m.slots {
		s := &m.slots[i]
		if busy := s.busy - time.Duration(s.timed)*m.clock; s.timed > 0 && busy > 0 {
			out[i] = workerTally{s.calls, time.Duration(float64(busy) * float64(s.calls) / float64(s.timed))}
		}
		*s = meterSlot{}
	}
	return out
}

func tallyTotals(ws []workerTally) (calls int64, sum, max time.Duration) {
	for _, w := range ws {
		calls += w.calls
		sum += w.busy
		if w.busy > max {
			max = w.busy
		}
	}
	return calls, sum, max
}
