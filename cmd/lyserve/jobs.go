package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"lightyear/internal/engine"
	"lightyear/internal/logging"
	"lightyear/internal/plan"
	"lightyear/internal/telemetry"
)

// serviceJob is one verification request running as a plan: per-property,
// per-problem state updated from the run's event stream, the ordered event
// log served by GET /v2/jobs/{id}/events, and the final result.
type serviceJob struct {
	id      string
	label   string // the plan's property list (plan.Compiled.Label)
	tenant  string // tenant the plan was admitted under
	cost    int    // admission cost (the plan's compiled check count)
	traceID string // the run's telemetry trace ("" without a recorder)
	created time.Time
	window  int // event-history bound (<=0 = unbounded)

	mu       sync.Mutex
	props    []*propertyState
	events   []plan.Event
	dropped  int           // events evicted from the front of the history
	notify   chan struct{} // closed and replaced whenever events/finished change
	finished bool
	done     time.Time
	errMsg   string // run error (admission race); job reports failed
	result   *plan.Result
}

type propertyState struct {
	property plan.Property
	problems []*problemState
}

type problemState struct {
	name       string
	total      int
	completed  int
	skipped    bool   // optional problem not applicable to this network
	failed     bool   // problem could not be submitted; fails the job
	skipReason string // reason for skipped or failed
	report     *engine.ReportJSON
	stats      *engine.JobStats
}

// doneAt reports whether the job has completed and when.
func (j *serviceJob) doneAt() (bool, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished, j.done
}

// launchPlan registers a job for the compiled plan — already admitted via
// resv, which the run takes ownership of — and starts it on the shared
// engine. tr is the trace the handler opened for the request (nil without
// a recorder); the run records into it and finishes it.
func (s *server) launchPlan(c *plan.Compiled, resv *engine.Reservation, tr *telemetry.Trace) *serviceJob {
	j := &serviceJob{
		label:   c.Label(),
		tenant:  engine.NormalizeTenant(c.Tenant()),
		cost:    c.Cost(),
		traceID: tr.ID(),
		created: time.Now(),
		window:  s.eventWindow,
		notify:  make(chan struct{}),
	}
	for _, u := range c.Units {
		ps := &propertyState{property: u.Property}
		for _, p := range u.Problems {
			ps.problems = append(ps.problems, &problemState{name: p.Name})
		}
		j.props = append(j.props, ps)
	}
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()

	go func() {
		res, err := plan.Run(s.eng, c, plan.RunConfig{Sink: j.handleEvent, Store: s.store, Reservation: resv, Trace: tr})
		errMsg := ""
		if err != nil {
			// The handler reserved admission for the whole plan, and only
			// delta-mode plans error otherwise; record defensively rather
			// than wedge the job.
			srvLog.Error("plan run failed",
				slog.String(logging.KeyJob, j.id),
				slog.String(logging.KeyTenant, j.tenant),
				slog.String(logging.KeyTraceID, j.traceID),
				slog.Any("error", err))
			errMsg = err.Error()
			res = &plan.Result{}
		}
		j.mu.Lock()
		j.result = res
		j.errMsg = errMsg
		j.finished = true
		j.done = time.Now()
		close(j.notify)
		j.notify = make(chan struct{})
		j.mu.Unlock()
	}()
	return j
}

// handleEvent is the plan.Run sink: it appends the event to the replay log,
// folds it into the per-problem state, and wakes streaming watchers. Calls
// are serialized by plan.Run.
func (j *serviceJob) handleEvent(ev plan.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Type == "start" || ev.Type == "check" || ev.Type == "problem" {
		if ev.Prop < len(j.props) && ev.Idx < len(j.props[ev.Prop].problems) {
			ps := j.props[ev.Prop].problems[ev.Idx]
			switch ev.Type {
			case "start":
				ps.total = ev.Total
			case "check":
				ps.completed, ps.total = ev.Completed, ev.Total
			case "problem":
				ps.skipped, ps.failed, ps.skipReason = ev.Skipped, ev.Failed, ev.Reason
				if ev.Stats != nil {
					ps.stats = ev.Stats
					ps.completed, ps.total = ev.Stats.Checks, ev.Stats.Checks
				}
			}
		}
	}
	j.events = append(j.events, ev)
	if j.window > 0 && len(j.events) > j.window {
		// Bound the replay history: evict the oldest events and remember how
		// many, so late subscribers get a truncation marker instead of the
		// missing prefix. Live subscribers past the eviction point are
		// unaffected (their cursor is absolute).
		evict := len(j.events) - j.window
		j.events = j.events[evict:]
		j.dropped += evict
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// fillReports copies the final per-problem reports out of the plan result
// into the snapshot state. Called lazily from snapshots (the result carries
// the reports; events deliberately do not).
func (j *serviceJob) fillReports() {
	if j.result == nil {
		return
	}
	for pi, pr := range j.result.Properties {
		for i := range pr.Problems {
			if pi < len(j.props) && i < len(j.props[pi].problems) {
				j.props[pi].problems[i].report = pr.Problems[i].ReportJSON
			}
		}
	}
}

// reservePlan admits the compiled plan as one unit against the engine,
// answering 429 + Retry-After on rejection. The caller owns the returned
// reservation (plan.Run releases it).
func (s *server) reservePlan(w http.ResponseWriter, c *plan.Compiled) (*engine.Reservation, bool) {
	resv, err := s.eng.Reserve(c.Tenant(), c.Cost())
	if err != nil {
		if !admissionError(w, err) {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return nil, false
	}
	return resv, true
}

// startRequestTrace opens the request's end-to-end trace on the process
// recorder (nil without one) and runs fn — the compilation step — under a
// "compile" span. The trace ID is handed back to the client before the
// asynchronous run starts.
func (s *server) startRequestTrace(label, tenant string, fn func() bool) (*telemetry.Trace, bool) {
	tr := s.rec.StartTrace(label, engine.NormalizeTenant(tenant))
	cs := tr.StartSpan("compile")
	ok := fn()
	if !ok {
		cs.SetAttr("error", "true")
	}
	cs.End()
	if !ok {
		tr.Finish()
	}
	return tr, ok
}

// admitTraced wraps the plan reservation in an "admit" span; a rejected
// plan's trace is finished here with the rejection recorded.
func (s *server) admitTraced(w http.ResponseWriter, c *plan.Compiled, tr *telemetry.Trace) (*engine.Reservation, bool) {
	as := tr.StartSpan("admit")
	as.SetAttrInt("cost", int64(c.Cost()))
	resv, ok := s.reservePlan(w, c)
	if !ok {
		as.SetAttr("rejected", "true")
	}
	as.End()
	if !ok {
		tr.Finish()
	}
	return resv, ok
}

// accepted answers 202 with the job's URLs and trace ID, echoing the trace
// in an X-Trace-Id header.
func accepted(w http.ResponseWriter, j *serviceJob) {
	body := map[string]string{
		"id":         j.id,
		"status_url": "/v2/jobs/" + j.id,
		"events_url": "/v2/jobs/" + j.id + "/events",
	}
	if j.traceID != "" {
		body["trace_id"] = j.traceID
		w.Header().Set("X-Trace-Id", j.traceID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(body)
}

func (s *server) handleVerifyV2(w http.ResponseWriter, r *http.Request) {
	var req plan.Request
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Options.Baseline != nil {
		httpError(w, http.StatusBadRequest,
			"options.baseline is not supported on /v2/verify; use sessions for incremental runs")
		return
	}
	if !rejectConfigPath(w, req.Network) {
		return
	}
	req.Options.Tenant = requestTenant(r, req.Options.Tenant)
	var c *plan.Compiled
	tr, ok := s.startRequestTrace("plan", req.Options.Tenant, func() bool {
		var err error
		c, err = plan.Compile(req, s)
		if err != nil {
			httpError(w, http.StatusBadRequest, strings.TrimPrefix(err.Error(), "plan: "))
			return false
		}
		return true
	})
	if !ok {
		return
	}
	tr.SetLabel(c.Label())
	resv, ok := s.admitTraced(w, c, tr)
	if !ok {
		return
	}
	j := s.launchPlan(c, resv, tr)
	accepted(w, j)
}

type problemStatusJS struct {
	Name       string             `json:"name"`
	Status     string             `json:"status"` // running | done | skipped | failed
	Completed  int                `json:"completed"`
	Total      int                `json:"total"`
	SkipReason string             `json:"skip_reason,omitempty"`
	Report     *engine.ReportJSON `json:"report,omitempty"`
	Stats      *engine.JobStats   `json:"stats,omitempty"`
}

func (ps *problemState) statusJS() problemStatusJS {
	st := problemStatusJS{
		Name:       ps.name,
		Completed:  ps.completed,
		Total:      ps.total,
		SkipReason: ps.skipReason,
		Report:     ps.report,
		Stats:      ps.stats,
	}
	switch {
	case ps.failed:
		st.Status = "failed"
	case ps.skipped:
		st.Status = "skipped"
	case ps.stats != nil:
		st.Status = "done"
	default:
		st.Status = "running"
	}
	return st
}

// jobV2JSON is the GET /v2/jobs/{id} response: the plan view, grouped per
// property.
type jobV2JSON struct {
	ID         string             `json:"id"`
	Label      string             `json:"label"`
	Tenant     string             `json:"tenant,omitempty"`
	TraceID    string             `json:"trace_id,omitempty"`
	Cost       int                `json:"cost,omitempty"` // admitted check count
	Status     string             `json:"status"`         // running | done
	OK         *bool              `json:"ok,omitempty"`
	Error      string             `json:"error,omitempty"`
	Created    time.Time          `json:"created"`
	Properties []propertyStatusJS `json:"properties"`
	Engine     *engine.Stats      `json:"engine,omitempty"`
}

type propertyStatusJS struct {
	Property plan.Property     `json:"property"`
	OK       *bool             `json:"ok,omitempty"`
	Stats    *engine.JobStats  `json:"stats,omitempty"`
	Problems []problemStatusJS `json:"problems"`
}

func (j *serviceJob) snapshotV2() jobV2JSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fillReports()
	out := jobV2JSON{ID: j.id, Label: j.label, Tenant: j.tenant, TraceID: j.traceID,
		Cost: j.cost, Error: j.errMsg, Created: j.created, Status: "running"}
	for pi, prop := range j.props {
		ps := propertyStatusJS{Property: prop.property}
		for _, pb := range prop.problems {
			ps.Problems = append(ps.Problems, pb.statusJS())
		}
		if j.result != nil && pi < len(j.result.Properties) {
			pr := j.result.Properties[pi]
			ok := pr.OK
			st := pr.Stats
			ps.OK, ps.Stats = &ok, &st
		}
		out.Properties = append(out.Properties, ps)
	}
	if j.finished {
		out.Status = "done"
		if j.result != nil {
			ok := j.result.OK
			out.OK = &ok
			eng := j.result.Engine
			out.Engine = &eng
		}
	}
	return out
}

func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) (*serviceJob, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return nil, false
	}
	return j, true
}

func (s *server) handleJobV2(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, j.snapshotV2())
	}
}

// handleJobEvents streams the job's plan events as NDJSON: the retained
// history so far, then live events until the final "plan" event closes the
// stream. The cursor is an absolute event index; when the job's bounded
// history (-event-window) has already evicted events the subscriber has not
// seen, a single {"type":"truncated","dropped":K} marker is emitted in
// their place.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	idx := 0 // absolute index of the next event to deliver
	for {
		j.mu.Lock()
		gap := 0
		if idx < j.dropped {
			gap = j.dropped - idx
			idx = j.dropped
		}
		pendingEvents := j.events[idx-j.dropped:] // elements are immutable once appended
		notify := j.notify
		finished := j.finished
		j.mu.Unlock()

		if gap > 0 {
			marker := plan.Event{Type: "truncated", Dropped: gap,
				Reason: "event window exceeded; earlier events evicted"}
			if err := enc.Encode(marker); err != nil {
				return
			}
		}
		for _, ev := range pendingEvents {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		idx += len(pendingEvents)
		if (gap > 0 || len(pendingEvents) > 0) && canFlush {
			flusher.Flush()
		}
		// finished and events were read under one lock hold: once finished,
		// the log is complete, and everything up to idx has been delivered.
		if finished {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			// Graceful shutdown: everything retained so far has been
			// delivered and flushed above; close the stream so
			// http.Server.Shutdown can finish draining connections.
			return
		}
	}
}
