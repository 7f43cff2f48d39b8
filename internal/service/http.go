package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"lpbuf/internal/obs"
)

// maxRequestBody bounds job submissions; specs are small.
const maxRequestBody = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs              submit a lpbuf.job/v1 spec (?wait=1 blocks)
//	GET    /v1/jobs              list job statuses
//	GET    /v1/jobs/{id}         one job's lpbuf.jobstatus/v1
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/events  SSE progress stream (replay + live)
//	GET    /v1/jobs/{id}/artifact  the lpbuf.artifact/v1 result
//	GET    /v1/jobs/{id}/trace   the job's span tree (Perfetto JSON)
//	GET    /v1/jobs/{id}/simprofile  the job's sampled guest-PMU profile
//	                             (lpbuf.simprofile/v1 JSON)
//	GET    /metrics              registry snapshot (JSON; ?format=prom
//	                             for Prometheus text exposition)
//	GET    /debug/flightrecorder recent transitions/rejections
//	                             (?kind=transition|rejection, ?limit=K;
//	                             ?n=K is a legacy alias of limit)
//	GET    /healthz              liveness/drain status
//
// Every route runs behind the observability middleware (per-route
// latency/size histograms, status-class counters, in-flight gauge,
// one structured log record per request); the route label is the
// registration pattern, threaded explicitly so label cardinality stays
// bounded by this table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	add := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	add("POST /v1/jobs", s.handleSubmit)
	add("GET /v1/jobs", s.handleList)
	add("GET /v1/jobs/{id}", s.handleStatus)
	add("DELETE /v1/jobs/{id}", s.handleCancel)
	add("GET /v1/jobs/{id}/events", s.handleEvents)
	add("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	add("GET /v1/jobs/{id}/trace", s.handleTrace)
	add("GET /v1/jobs/{id}/simprofile", s.handleSimProfile)
	add("GET /metrics", s.handleMetrics)
	add("GET /debug/flightrecorder", s.handleFlightRecorder)
	add("GET /healthz", s.handleHealthz)
	// Catch-all so unmatched requests are still counted and logged,
	// under a fixed label instead of unbounded request paths.
	mux.Handle("/", s.instrument("other", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
		})))
	return mux
}

// writeJSON writes v as indented JSON with a trailing newline (the
// same framing every artifact in this repo uses).
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeJobSpec decodes an untrusted submit body. Unknown fields are
// rejected so a misspelled option fails loudly instead of being
// silently dropped from the content key.
func decodeJobSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	j, err := s.SubmitTraced(spec, host, r.Header.Get(TraceHeader))
	if err != nil {
		var rej *RejectError
		if asReject(err, &rej) {
			w.Header().Set("Retry-After",
				strconv.Itoa(int(rej.RetryAfter/time.Second)))
			writeError(w, rej.Code, "%s", rej.Reason)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.Status())
		case <-r.Context().Done():
			// Client went away; the job keeps running.
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.Status())
}

// asReject unwraps a RejectError.
func asReject(err error, out **RejectError) bool {
	rej, ok := err.(*RejectError)
	if ok {
		*out = rej
	}
	return ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	canceled := s.Cancel(id)
	j, _ := s.Get(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"canceled": canceled,
		"status":   j.Status(),
	})
}

// handleEvents streams a job's progress as Server-Sent Events: history
// replay first, then live events, closing when the job reaches a
// terminal state. Event framing: `event: <type>` + `data: <Event JSON>`.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, cancel := j.hub.subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return // terminal state reached; stream complete
			}
			fmt.Fprintf(w, "event: %s\ndata: ", e.Type)
			if err := enc.Encode(e); err != nil {
				return
			}
			fmt.Fprint(w, "\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.Status()
	switch st.State {
	case StateDone:
	case StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, "job %s %s: %s", j.ID(), st.State, st.Error)
		return
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %s still %s", j.ID(), st.State)
		return
	}
	data, err := s.store.Get(j.Key())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "artifact missing from store: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", `"`+j.Key()+`"`)
	w.Header().Set("X-Lpbuf-Cache", cacheHeader(st))
	w.Write(data)
}

// cacheHeader summarizes how the artifact was produced.
func cacheHeader(st JobStatus) string {
	switch {
	case st.CacheHit:
		return "store-hit"
	case st.Shared:
		return "inflight-dedup"
	default:
		return "computed"
	}
}

// handleTrace serves a job's span tree (plus its sim-event tail) as
// Chrome trace-event JSON, loadable in Perfetto. Available from
// admission on — a running job serves a partial tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	tr := j.scope.Trace()
	if tr == nil {
		writeError(w, http.StatusNotFound, "job %s has no trace", j.ID())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, j.TraceID())
	// A finished build's sampled PMU profile rides along as Perfetto
	// counter tracks (fetch energy, buffer residency, redirect penalty).
	var counters []obs.CounterSeries
	if doc := j.SimProfile(); doc != nil {
		counters = doc.CounterSeries(nil)
	}
	if err := obs.WriteChromeTraceCounters(w, tr, j.scope.Sim(), counters); err != nil {
		s.slog().Error("trace export failed", "job", j.ID(), "err", err)
	}
}

// handleSimProfile serves a job's sampled guest-PMU profile
// (lpbuf.simprofile/v1). Jobs whose artifact came from the store or an
// in-flight leader never simulated anything themselves and answer 404.
func (s *Server) handleSimProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	doc := j.SimProfile()
	if doc == nil {
		writeError(w, http.StatusNotFound,
			"job %s has no sim profile (not built by this job: store hit, dedup, or still running)", j.ID())
		return
	}
	data, err := doc.Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "simprofile: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, j.TraceID())
	w.Write(data)
}

// handleFlightRecorder serves the bounded ring of recent job lifecycle
// transitions and admission rejections. ?kind=transition|rejection
// filters server-side (the record vocabulary "rejected" is accepted
// too); ?limit=K keeps the newest K after filtering, with ?n=K as a
// legacy alias.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	limit := 0
	for _, param := range []string{"n", "limit"} {
		if q := r.URL.Query().Get(param); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				writeError(w, http.StatusBadRequest, "bad %s %q", param, q)
				return
			}
			limit = v
		}
	}
	kind := ""
	switch q := r.URL.Query().Get("kind"); q {
	case "":
	case "transition":
		kind = "transition"
	case "rejection", "rejected":
		kind = "rejected"
	default:
		writeError(w, http.StatusBadRequest, "bad kind %q (transition, rejection)", q)
		return
	}
	// Filter before trimming so `limit` means "newest K of the requested
	// kind", not "matching entries among the newest K of everything".
	total, records := s.flightrec.records(0)
	if kind != "" {
		kept := records[:0]
		for _, rec := range records {
			if rec.Kind == kind {
				kept = append(kept, rec)
			}
		}
		records = kept
	}
	if limit > 0 && len(records) > limit {
		records = records[len(records)-limit:]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"schema":   FlightRecSchema,
		"capacity": flightRecCapacity,
		"total":    total,
		"records":  records,
	})
}

// handleMetrics serves the registry snapshot: stable JSON by default,
// Prometheus text exposition with ?format=prom. JSON map keys marshal
// sorted, so identical registries produce byte-identical documents.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	case "prom":
		var buf bytes.Buffer
		if err := obs.WriteProm(&buf, s.reg.Snapshot()); err != nil {
			writeError(w, http.StatusInternalServerError, "prom exposition: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (json, prom)", format)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued, running := s.queued, s.running
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	cfg := s.Config()
	stored, _ := s.store.Len()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"draining":       draining,
		"uptime_seconds": int64(time.Since(s.started) / time.Second),
		"jobs":           jobs,
		"queued":         queued,
		"running":        running,
		"stored":         stored,
		"queue_depth":    cfg.QueueDepth,
		"max_jobs":       cfg.MaxJobs,
		"max_per_client": cfg.MaxPerClient,
	})
}
