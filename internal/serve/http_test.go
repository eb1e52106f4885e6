package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"whilepar/internal/cancel"
	"whilepar/internal/core"
	"whilepar/internal/loopir"
)

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (*http.Response, map[string]string) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestHTTPSubmitAndStatus(t *testing.T) {
	s := newTestScheduler(t, Config{Procs: 4, MaxInFlight: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, out := postJob(t, srv, JobSpec{Kind: "while", Program: testProgram, MaxIter: 128})
	if resp.StatusCode != http.StatusAccepted || out["id"] == "" {
		t.Fatalf("submit: %d %v", resp.StatusCode, out)
	}
	id := out["id"]

	var st Status
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status: %d", r.StatusCode)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "queued" || st.State == "running" {
			if time.Now().After(deadline) {
				t.Fatalf("job stuck: %+v", st)
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		break
	}
	if st.State != "done" || st.Report == nil || st.Report.Valid != 128 {
		t.Fatalf("terminal status %+v", st)
	}
	if st.Metrics == nil {
		t.Fatal("status carries no metrics snapshot")
	}

	r, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", r.StatusCode)
	}

	resp, _ = postJob(t, srv, JobSpec{Kind: "while", Program: "broken ("})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad program: %d", resp.StatusCode)
	}
	// A scalar read before the body assigns it is refused at submit,
	// by name.
	resp, out = postJob(t, srv, JobSpec{Kind: "while", MaxIter: 64,
		Program: "while (i < n) {\n b[i] = x\n x = a[i]\n i = i + 1\n}"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out["error"], `"x"`) {
		t.Fatalf("read-before-assign program: %d %v", resp.StatusCode, out)
	}

	// A job whose loop would run for seconds, under a 50 ms deadline:
	// the engine's workers see the deadline themselves, so the job fails
	// with kind "deadline" within 10 ms of it.
	RegisterNative("http-long", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		return core.RunInductionCtx(ctx, &loopir.Loop[int]{
			Class: loopir.Class{Dispatcher: loopir.MonotonicInduction, Terminator: loopir.RI},
			Disp:  loopir.IntInduction{C: 1},
			Body: func(it *loopir.Iter, d int) bool {
				x := d
				for j := 0; j < 1000; j++ { // about a microsecond
					x = x*31 + j
				}
				return x != 0 || d >= 0
			},
			Max: 1 << 22,
		}, opt)
	})
	const deadlineMs = 50
	_, out = postJob(t, srv, JobSpec{Kind: "native", Native: "http-long", DeadlineMs: deadlineMs})
	waitDone(t, s, out["id"])
	r, err = http.Get(srv.URL + "/v1/jobs/" + out["id"])
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.ErrorKind != "deadline" {
		t.Fatalf("deadline job: %+v", st)
	}
	if limit := st.Submitted.Add((deadlineMs + 10) * time.Millisecond); st.Finished.After(limit) {
		t.Fatalf("deadline job finished %v after submission, deadline %d ms", st.Finished.Sub(st.Submitted), deadlineMs)
	}
}

func TestHTTPOversizedBody413(t *testing.T) {
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	before := s.Stats()
	resp, out := postJob(t, srv, JobSpec{Kind: "while", Program: strings.Repeat(" ", maxJobBody) + testProgram})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d %v", resp.StatusCode, out)
	}
	if got := s.Stats(); got != before {
		t.Fatalf("rejected body reached the scheduler: %+v, was %+v", got, before)
	}
	resp, out = postJob(t, srv, JobSpec{Kind: "while", Program: testProgram, MaxIter: 16})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after 413: %d %v", resp.StatusCode, out)
	}
}

func TestHTTPRateLimit429(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(2000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, Rate: 1, Burst: 1, Now: clock})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	spec := JobSpec{Kind: "while", Program: testProgram, MaxIter: 16}
	resp, _ := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, out := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(out["error"], "rate limit") {
		t.Fatalf("429 body: %v", out)
	}
}

func TestHTTPQueueFull503(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	RegisterNative("http-block", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		started <- struct{}{}
		<-gate
		return core.Report{}, nil
	})
	defer close(gate)
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1, QueueDepth: 1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	if resp, _ := postJob(t, srv, JobSpec{Kind: "native", Native: "http-block"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d", resp.StatusCode)
	}
	<-started
	if resp, _ := postJob(t, srv, JobSpec{Kind: "native", Native: "http-block"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued: %d", resp.StatusCode)
	}
	resp, _ := postJob(t, srv, JobSpec{Kind: "native", Native: "http-block"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-depth: %d", resp.StatusCode)
	}
}

func TestHTTPMetricsHealthzNatives(t *testing.T) {
	RegisterNative("http-count", countLoop(64, 0))
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	_, out := postJob(t, srv, JobSpec{Kind: "native", Native: "http-count", Strategy: "speculate"})
	waitDone(t, s, out["id"])

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(r.Body)
	r.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"whilepard_jobs_submitted_total 1",
		"whilepard_jobs_completed_total 1",
		"whilepard_pool_procs 2",
		"# TYPE whilepard_issued counter",
		"whilepard_issued 64",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK bool `json:"ok"`
		Stats
	}
	err = json.NewDecoder(r.Body).Decode(&hz)
	r.Body.Close()
	if err != nil || !hz.OK || hz.Submitted != 1 {
		t.Fatalf("healthz: %+v err %v", hz, err)
	}

	r, err = http.Get(srv.URL + "/v1/natives")
	if err != nil {
		t.Fatal(err)
	}
	var nat map[string][]string
	err = json.NewDecoder(r.Body).Decode(&nat)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range nat["natives"] {
		if n == "http-count" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/v1/natives = %v", nat)
	}
}

func TestHTTPStreamAndCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	RegisterNative("http-stream-block", func(ctx context.Context, opt core.Options, args map[string]float64) (core.Report, error) {
		started <- struct{}{}
		<-ctx.Done()
		return core.Report{}, cancel.Wrap(ctx.Err())
	})
	s := newTestScheduler(t, Config{Procs: 2, MaxInFlight: 1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	_, out := postJob(t, srv, JobSpec{Kind: "native", Native: "http-stream-block"})
	id := out["id"]
	<-started

	streamDone := make(chan []string, 1)
	go func() {
		r, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			streamDone <- nil
			return
		}
		defer r.Body.Close()
		var states []string
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			var st Status
			if json.Unmarshal(sc.Bytes(), &st) == nil {
				states = append(states, st.State)
			}
		}
		streamDone <- states
	}()

	time.Sleep(120 * time.Millisecond) // let a few stream ticks land
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", r.StatusCode)
	}

	select {
	case states := <-streamDone:
		if len(states) == 0 {
			t.Fatal("stream yielded nothing")
		}
		if states[len(states)-1] != "canceled" {
			t.Fatalf("stream states %v, want terminal canceled", states)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after cancel")
	}
	if st := waitDone(t, s, id); st.State != "canceled" {
		t.Fatalf("final status %+v", st)
	}
}
