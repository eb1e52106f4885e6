package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// maxJobBody caps a POST /v1/jobs body, so that one client cannot make
// the decoder buffer an unbounded program; real JobSpecs are far below
// it.
const maxJobBody = 1 << 20

// NewHandler wires the Scheduler into an http.Handler:
//
//	POST   /v1/jobs           submit a JobSpec  -> 202 {"id": "..."}
//	GET    /v1/jobs           list retained jobs
//	GET    /v1/jobs/{id}      job status (report, metrics, error)
//	GET    /v1/jobs/{id}/stream  NDJSON status stream until terminal
//	DELETE /v1/jobs/{id}      cancel
//	GET    /v1/natives        registered native loop bodies
//	GET    /healthz           liveness + admission counters
//	GET    /metrics           Prometheus text format
//
// Admission failures map onto status codes: ErrRateLimited -> 429,
// ErrQueueFull and ErrClosed -> 503 (with Retry-After), ErrBadSpec ->
// 400, a submit body over maxJobBody -> 413.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody)).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err)
			return
		}
		id, err := s.Submit(spec)
		if err != nil {
			switch {
			case errors.Is(err, ErrRateLimited):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": Queued.String()})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		done, err := s.Done(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		emit := func() bool {
			st, err := s.Status(id)
			if err != nil {
				return false
			}
			if enc.Encode(st) != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
			return true
		}
		if !emit() {
			return
		}
		for {
			select {
			case <-done:
				emit() // final terminal snapshot
				return
			case <-r.Context().Done():
				return
			case <-tick.C:
				if !emit() {
					return
				}
			}
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": r.PathValue("id"), "state": "canceling"})
	})
	mux.HandleFunc("GET /v1/natives", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"natives": Natives()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			OK bool `json:"ok"`
			Stats
		}{OK: true, Stats: s.Stats()})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WriteMetrics(w)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
