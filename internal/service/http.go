package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"commsched/internal/obs"
)

// Mux builds the daemon's HTTP API on a standard ServeMux:
//
//	POST /jobs              submit a job (202 + job record, or 400/429/503)
//	GET  /jobs              list jobs (filter with ?state= and ?tenant=)
//	GET  /jobs/{id}         one job's record
//	GET  /jobs/{id}/result  the result document alone (409 until done)
//	POST /evaluate          synchronous F_G/D_G/Cc evaluation (cached characterization)
//	GET  /healthz           liveness: the process is up (always 200)
//	GET  /readyz            readiness: admission state (503 when draining)
//
// tel, when non-nil, is a telemetry server handler; its observability
// routes (/metrics, /events, /runs, /debug/pprof/) are mounted on the
// same port so one address serves API and telemetry alike. Liveness and
// readiness are deliberately distinct: a draining daemon is alive (do
// not restart it — it is checkpointing) but not ready (send work
// elsewhere).
func (s *Service) Mux(tel http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", withTrace("/jobs", s.handleSubmit))
	mux.HandleFunc("GET /jobs", withTrace("/jobs", s.handleList))
	mux.HandleFunc("GET /jobs/{id}", withTrace("/jobs/{id}", s.handleGet))
	mux.HandleFunc("GET /jobs/{id}/result", withTrace("/jobs/{id}/result", s.handleResult))
	mux.HandleFunc("POST /evaluate", withTrace("/evaluate", s.handleEvaluate))
	mux.HandleFunc("GET /healthz", withTrace("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", withTrace("/readyz", s.handleReadyz))
	if tel != nil {
		mux.Handle("/metrics", tel)
		mux.Handle("/events", tel)
		mux.Handle("/runs", tel)
		mux.Handle("/trace/", tel)
		mux.Handle("/debug/pprof/", tel)
	}
	return mux
}

// statusWriter captures the response code for the http.request span.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// withTrace is the W3C trace-context middleware: it joins the client's
// traceparent (or mints a fresh root when the header is absent or
// malformed), opens a request span as its child, echoes the span's own
// traceparent in the response so the client can correlate, and attaches
// the span context to the request context for everything downstream
// (admission, the runner, error bodies). The header round trip works
// whether or not an obs sink is installed; only the span emission is
// gated.
func withTrace(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		sc := parent.NewChild()
		w.Header().Set("traceparent", sc.Traceparent())
		sp := obs.StartSpanAt(sc, parent.Span, "http.request",
			obs.F("endpoint", endpoint), obs.F("method", r.Method))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(obs.WithSpanContext(r.Context(), sc)))
		sp.End(obs.F("status", sw.code))
	}
}

// maxBodyBytes bounds any request body: the largest legitimate payload
// is an explicit topology document plus spec fields.
const maxBodyBytes = MaxNetworkBytes + 64*1024

type apiError struct {
	Error      string  `json:"error"`
	Reason     string  `json:"reason,omitempty"`
	RetryAfter float64 `json:"retry_after_seconds,omitempty"`
	// TraceID / JobID are the machine-readable correlation handles: the
	// request's trace (always present under the trace middleware) and the
	// job involved when one is known, so a client's audit log can tie a
	// 429/503/500 back to the submission that caused it.
	TraceID string `json:"trace_id,omitempty"`
	JobID   string `json:"job_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// correlate stamps an error body with the request's trace ID and, when
// known, the job ID.
func correlate(r *http.Request, jobID string, e apiError) apiError {
	if sc := obs.SpanContextFrom(r.Context()); sc.Valid() {
		e.TraceID = sc.Trace.String()
	}
	e.JobID = jobID
	return e
}

// writeError translates the service's error taxonomy to HTTP: Decision →
// its own code with a Retry-After header, ErrInvalid → 400, anything
// else → 500. Every body carries the request's trace ID (and the job ID
// when the caller knows one).
func writeError(w http.ResponseWriter, r *http.Request, jobID string, err error) {
	var d Decision
	if errors.As(err, &d) {
		if d.RetryAfter > 0 {
			secs := int(d.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, d.Code, correlate(r, jobID, apiError{Error: d.Error(), Reason: d.Reason, RetryAfter: d.RetryAfter.Seconds()}))
		return
	}
	if errors.Is(err, ErrInvalid) {
		writeJSON(w, http.StatusBadRequest, correlate(r, jobID, apiError{Error: err.Error(), Reason: "invalid"}))
		return
	}
	writeJSON(w, http.StatusInternalServerError, correlate(r, jobID, apiError{Error: err.Error()}))
}

func decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	var spec JobSpec
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, correlate(r, "", apiError{Error: fmt.Sprintf("decoding job spec: %v", err), Reason: "invalid"}))
		return JobSpec{}, false
	}
	return spec, true
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	job, err := s.SubmitCtx(r.Context(), spec)
	if err != nil {
		writeError(w, r, "", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	tenant := r.URL.Query().Get("tenant")
	jobs := s.List()
	out := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if state != "" && string(j.State) != state {
			continue
		}
		if tenant != "" && j.Spec.Tenant != tenant {
			continue
		}
		// The listing is an index; results can be megabytes across
		// thousands of jobs, so fetch them per job.
		j.Result = nil
		out = append(out, j)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{out})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, correlate(r, id, apiError{Error: "no such job", Reason: "not_found"}))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, correlate(r, id, apiError{Error: "no such job", Reason: "not_found"}))
		return
	}
	switch job.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(job.Result) //nolint:errcheck // client gone; nothing to do
	case StateFailed:
		writeJSON(w, http.StatusConflict, correlate(r, id, apiError{Error: job.Error, Reason: "failed"}))
	default:
		// Not done yet: tell the poller how things stand and to come back.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, correlate(r, id, apiError{Error: fmt.Sprintf("job is %s", job.State), Reason: string(job.State), RetryAfter: 1}))
	}
}

func (s *Service) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	res, err := s.Evaluate(r.Context(), spec)
	if err != nil {
		writeError(w, r, "", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

type readyzDoc struct {
	Ready  bool         `json:"ready"`
	Reason string       `json:"reason,omitempty"`
	Stats  ServiceStats `json:"stats"`
}

func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	doc := readyzDoc{Ready: true, Stats: st}
	code := http.StatusOK
	switch {
	case st.Admission.Draining:
		doc.Ready, doc.Reason, code = false, "draining", http.StatusServiceUnavailable
	case st.Admission.Shedding:
		doc.Ready, doc.Reason, code = false, "shedding", http.StatusServiceUnavailable
	}
	writeJSON(w, code, doc)
}
