package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilMetricsAndTracerAreInert(t *testing.T) {
	var m *Metrics
	m.IterIssued(5)
	m.IterExecutedN(3, 1)
	m.OvershotAdd(1)
	m.QuitPosted()
	m.GuidedChunk(7)
	m.TrackedStore()
	m.StampedStore()
	m.CheckpointDone(100)
	m.RestoreDone()
	m.UndoneAdd(2)
	m.RecordPD(PDVerdict{Array: "a"})
	m.SpecAttempt()
	m.SpecCommit()
	m.SpecAbort("x")
	if s := m.Snapshot(); s.Executed != 0 || s.SpecAborts != 0 {
		t.Fatalf("nil metrics produced counts: %+v", s)
	}

	var tr Tracer // nil interface
	start := Start(tr)
	Span(tr, start, "iter", "doall", 0, nil)
	Instant(tr, "QUIT", "doall", 0, nil)
}

func TestMetricsConcurrentAccumulation(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func(vpn int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.IterIssued(1)
				m.IterExecutedN(vpn, 1)
				m.TrackedStore()
			}
			m.GuidedChunk(vpn + 1)
			m.SpecAttempt()
		}(k)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Issued != workers*per || s.Executed != workers*per || s.TrackedStores != workers*per {
		t.Fatalf("counter mismatch: %+v", s)
	}
	if len(s.VPNBusy) != workers {
		t.Fatalf("vpn table size = %d, want %d", len(s.VPNBusy), workers)
	}
	for k, v := range s.VPNBusy {
		if v != per {
			t.Fatalf("vpn %d busy = %d, want %d", k, v, per)
		}
	}
	if s.GuidedChunks != workers || s.MinGuidedChunk != 1 || s.MaxGuidedChunk != workers {
		t.Fatalf("chunk stats wrong: %+v", s)
	}
	if s.SpecAttempts != workers {
		t.Fatalf("spec attempts = %d", s.SpecAttempts)
	}
	if s.String() == "" {
		t.Fatal("empty render")
	}
}

func TestChromeTracerEmitsLoadableJSON(t *testing.T) {
	c := NewChromeTracer()
	st := Start(c)
	Span(c, st, "iter", "doall", 2, map[string]any{"i": 41})
	Instant(c, "QUIT", "doall", 2, map[string]any{"i": 41})
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    *int64         `json:"ts"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) != 2 {
		t.Fatalf("unexpected document: %s", buf.String())
	}
	span, inst := doc.TraceEvents[0], doc.TraceEvents[1]
	if span.Phase != "X" || span.Name != "iter" || span.TID != 2 || span.TS == nil {
		t.Fatalf("bad span event: %+v", span)
	}
	if inst.Phase != "i" || inst.Name != "QUIT" || inst.Args["i"] != float64(41) {
		t.Fatalf("bad instant event: %+v", inst)
	}
}

func TestChromeTracerEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewChromeTracer().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("traceEvents missing or not an array: %s", buf.String())
	}
}
