package janusd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the daemon's full HTTP surface. One mux serves the
// JSON job API, the synchronous render endpoint and the health probes,
// so a single listener carries everything.
//
//	POST /v1/jobs              submit, 202 {"id": ...} | 429 shed | 503 draining
//	GET  /v1/jobs/{id}         status snapshot
//	GET  /v1/jobs/{id}/result  blocks until terminal response
//	GET  /v1/jobs/{id}/events  streams progress lines until terminal
//	POST /v1/render            submit + wait; 200 text/plain = exact render bytes
//	GET  /healthz              liveness ("ok" even while draining)
//	GET  /readyz               readiness (503 once draining)
//	GET  /statusz              JSON Stats snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/render", s.handleRender)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	return mux
}

// statusFor maps a failure kind to its HTTP status.
func statusFor(kind string) int {
	switch kind {
	case "":
		return http.StatusOK
	case KindBadRequest:
		return http.StatusBadRequest
	case KindShed:
		return http.StatusTooManyRequests
	case KindDraining:
		return http.StatusServiceUnavailable
	case KindDeadline:
		return http.StatusGatewayTimeout
	case KindNotFound:
		return http.StatusNotFound
	default: // canceled, panic, render
		return http.StatusInternalServerError
	}
}

// submitFailure types a Submit error into a Response.
func submitFailure(err error) *Response {
	kind := KindBadRequest
	switch {
	case errors.Is(err, errDraining):
		kind = KindDraining
	case errors.Is(err, errShed):
		kind = KindShed
	}
	return &Response{State: StateFailed, Err: err.Error(), ErrKind: kind}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v)
}

// writeFailure emits a typed error response, adding Retry-After on
// load shed so clients know the backoff floor.
func writeFailure(w http.ResponseWriter, res *Response) {
	if res.ErrKind == KindShed {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, statusFor(res.ErrKind), res)
}

// maxRequestBytes bounds a request body; a longer one is refused
// before it is decoded in full.
const maxRequestBytes = 1 << 20

func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		writeFailure(w, &Response{State: StateFailed, Err: err.Error(), ErrKind: KindBadRequest})
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeFailure(w, submitFailure(err))
		return
	}
	writeJSON(w, http.StatusAccepted, &Response{ID: j.ID, State: j.State()})
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeFailure(w, &Response{ID: id, State: StateFailed,
			Err: "unknown job " + strconv.Quote(id), ErrKind: KindNotFound})
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	res := j.res
	state := j.state
	j.mu.Unlock()
	if res != nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	writeJSON(w, http.StatusOK, &Response{ID: j.ID, State: state})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	res, err := j.Wait(r.Context())
	if err != nil {
		return // client went away; nothing to deliver
	}
	writeJSON(w, statusFor(res.ErrKind), res)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	j.Events(r.Context(), func(line string) bool {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	})
}

// handleRender is the synchronous path: submit, wait, and on success
// answer 200 text/plain whose body is the exact bytes the render
// produced — what janus-bench would have printed — so curl | cmp
// against the golden fixture works with no JSON unwrapping. Job
// metadata rides in X-Janus-* headers; failures come back as the same
// typed JSON the async path uses.
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		writeFailure(w, &Response{State: StateFailed, Err: err.Error(), ErrKind: KindBadRequest})
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeFailure(w, submitFailure(err))
		return
	}
	res, werr := j.Wait(r.Context())
	if werr != nil {
		return // client went away mid-wait; the job still completes
	}
	if res.Failed() {
		writeFailure(w, res)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Janus-Job", res.ID)
	h.Set("X-Janus-Elapsed-Ms", strconv.FormatInt(res.ElapsedMS, 10))
	h.Set("X-Janus-Recoveries", strconv.FormatInt(res.Recoveries, 10))
	h.Set("X-Janus-Demoted", strconv.FormatInt(res.Demoted, 10))
	_, _ = w.Write([]byte(res.Output))
}
