package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/migrate"
	"lightyear/internal/plan"
	"lightyear/internal/store"
	"lightyear/internal/topology"
)

// session is one incremental verification session: a pinned delta.Verifier
// plus the history of runs applied to it. A single worker goroutine drains
// the queue, so runs execute in submission order while the HTTP handlers
// stay asynchronous.
type session struct {
	id      string
	label   string         // the plan's property list (plan.Compiled.Label)
	tenant  string         // tenant every run of this session is admitted under
	plan    *plan.Compiled // the pinned plan; updates re-validate scopes against it
	created time.Time

	verifier *delta.Verifier
	store    *store.Store // nil without -store; provenance tagging only
	wake     chan struct{}

	mu         sync.Mutex
	runs       []*sessionRun
	queue      []*queuedRun
	running    int       // runs dequeued by the worker but not yet recorded
	lastActive time.Time // last launch or run completion
	closed     bool      // session deleted: worker exits, launches are refused
}

// expireIfIdle closes the session if it has been idle (no queued or
// running work) since before cutoff, reporting whether it expired. The
// close decision is made under sess.mu together with the idleness check,
// so launch() can never enqueue a run into a session the GC is about to
// drop — a racing update is either observed here (the session survives) or
// refused with 404 by launch() seeing closed.
func (sess *session) expireIfIdle(cutoff time.Time) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed || len(sess.queue) > 0 || sess.running > 0 || !sess.lastActive.Before(cutoff) {
		return false
	}
	sess.closed = true
	sess.queue = nil
	return true
}

// queuedRun is one pending run awaiting the session worker: a network to
// baseline/update against, or a migration plan closure. migrateFn entries
// carry an abandon hook the session's close() invokes — under the queue's
// mutual exclusion with the worker's dequeue, so exactly once — to release
// the plan's reservation and end its event stream when the session is
// deleted before the plan runs.
type queuedRun struct {
	run      *sessionRun
	network  *topology.Network
	baseline bool

	migrateFn func() (*migrate.Result, error)
	abandon   func()
}

// sessionRun is one baseline, update, or migration plan applied to a
// session.
type sessionRun struct {
	seq       int
	submitted time.Time
	baseline  bool
	migrate   bool

	status        string // running | done | failed
	errMsg        string
	result        *delta.Result
	migrateResult *migrate.Result
}

// createSession registers and starts a session whose problem source is the
// compiled plan, pinning c.Network as the baseline. The baseline's cost is
// prechecked against admission so a session that could never run is 429ed
// here; the binding admission decision is the session worker's (each run
// reserves its own dirty cost under the session's tenant).
func (s *server) createSession(w http.ResponseWriter, c *plan.Compiled) {
	cost := c.Cost()
	c.ReleasePrepared() // only the scalar is needed; the plan is pinned for the session's lifetime
	if err := s.eng.AdmitProbe(c.Tenant(), cost); err != nil {
		if !admissionError(w, err) {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	sess := &session{
		label:      c.Label(),
		tenant:     engine.NormalizeTenant(c.Tenant()),
		plan:       c,
		created:    time.Now(),
		lastActive: time.Now(),
		verifier:   delta.NewVerifierFor(s.eng, c),
		store:      s.store,
		wake:       make(chan struct{}, 1),
	}
	// The request's tenant, priority, and solver backend follow the
	// session: every incremental update's dirty subset is admitted under
	// the session's tenant and solves on the backend the plan selected.
	sess.verifier.SetWorkload(c.Workload())
	s.mu.Lock()
	select {
	case <-s.shutdown:
		// closeEngine may already be waiting on the session workers; a
		// session started now would run its baseline on a closed engine.
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	s.sseq++
	sess.id = fmt.Sprintf("session-%d", s.sseq)
	s.sessions[sess.id] = sess
	s.sessionWorkers.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.sessionWorkers.Done()
		sess.worker()
	}()

	sess.launch(c.Network, true)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{
		"id":         sess.id,
		"status_url": "/v2/sessions/" + sess.id,
	})
}

func (s *server) handleSessionCreateV2(w http.ResponseWriter, r *http.Request) {
	var req plan.Request
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Options.Baseline != nil {
		httpError(w, http.StatusBadRequest,
			"options.baseline is not supported on sessions; the session pins its own baseline")
		return
	}
	if !rejectConfigPath(w, req.Network) {
		return
	}
	req.Options.Tenant = requestTenant(r, req.Options.Tenant)
	c, err := plan.Compile(req, s)
	if err != nil {
		httpError(w, http.StatusBadRequest, strings.TrimPrefix(err.Error(), "plan: "))
		return
	}
	s.createSession(w, c)
}

func (s *server) lookupSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return nil, false
	}
	return sess, true
}

// sessionTenantAllowed enforces the session's tenant on mutating session
// endpoints: updates run under — and are charged to — the session's
// tenant, so a caller presenting a different identity may not consume that
// quota (or delete the session). The identity is resolved through the same
// channels as creation (X-Tenant header, ?tenant= query, then the request
// body's tenant field), so a session created via the body's tenant option
// remains mutable by its creator. Answers 403 and reports false on
// mismatch.
func sessionTenantAllowed(w http.ResponseWriter, r *http.Request, sess *session, bodyTenant string) bool {
	if engine.NormalizeTenant(requestTenant(r, bodyTenant)) != sess.tenant {
		httpError(w, http.StatusForbidden, "session belongs to a different tenant")
		return false
	}
	return true
}

// launchUpdate queues a materialized network as a session update and
// answers 202.
func launchUpdate(w http.ResponseWriter, sess *session, n *topology.Network) {
	run := sess.launch(n, false)
	if run == nil {
		httpError(w, http.StatusNotFound, "session deleted")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id":         sess.id,
		"update":     run.seq,
		"status_url": "/v2/sessions/" + sess.id,
	})
}

// sessionUpdateV2 is the POST /v2/sessions/{id}/update body: a new network
// state for the session's pinned plan, plus (optionally) the caller's
// tenant when it is not asserted via header or query. Properties and
// Options are decoded only so that bodies carrying them are rejected: the
// session pins both, and ignoring them would verify a suite the caller did
// not ask for.
type sessionUpdateV2 struct {
	Network    plan.Network    `json:"network"`
	Properties json.RawMessage `json:"properties,omitempty"`
	Options    json.RawMessage `json:"options,omitempty"`
	Tenant     string          `json:"tenant,omitempty"`
}

func (s *server) handleSessionUpdateV2(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req sessionUpdateV2
	if !decodeBody(w, r, &req) {
		return
	}
	if !sessionTenantAllowed(w, r, sess, req.Tenant) {
		return
	}
	if req.Properties != nil || req.Options != nil {
		httpError(w, http.StatusBadRequest, "properties and options are pinned by the session; an update carries only a network")
		return
	}
	if !rejectConfigPath(w, req.Network) {
		return
	}
	n, _, err := req.Network.Materialize(s)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The pinned plan's scopes must still select real routers on the new
	// state, or the incremental run would silently verify a smaller —
	// possibly empty — problem set.
	if err := sess.plan.ValidateScopes(n); err != nil {
		httpError(w, http.StatusBadRequest, strings.TrimPrefix(err.Error(), "plan: "))
		return
	}
	launchUpdate(w, sess, n)
}

// sessionMigrateV2 is the POST /v2/sessions/{id}/migrate body: a migration
// plan's step list (the session pins the baseline, properties, and
// options), plus the search controls and optionally the caller's tenant.
// Network and Properties are decoded only so that bodies carrying them are
// rejected by CompileSteps with a real explanation rather than silently
// ignored.
type sessionMigrateV2 struct {
	Network      *plan.Network   `json:"network,omitempty"`
	Properties   []plan.Property `json:"properties,omitempty"`
	Steps        []migrate.Step  `json:"steps"`
	Unordered    bool            `json:"unordered,omitempty"`
	SearchBudget int             `json:"search_budget,omitempty"`
	Tenant       string          `json:"tenant,omitempty"`
}

// handleSessionMigrate verifies a migration plan against the session's
// pinned baseline and streams its step-indexed events as NDJSON. Unlike
// updates (202 + poll), the response is the run: migration is a deployment
// gate, and the caller wants the first violating step the moment it is
// found. The plan executes on the session worker — strictly ordered with
// the session's other runs — while this handler relays its events; a
// disconnecting client does not abort the plan (the session must end on a
// verified state, pinned or rolled back, not mid-sequence).
func (s *server) handleSessionMigrate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req sessionMigrateV2
	if !decodeBody(w, r, &req) {
		return
	}
	if !sessionTenantAllowed(w, r, sess, req.Tenant) {
		return
	}
	var c *migrate.Compiled
	var cerr error
	tr, ok := s.startRequestTrace("migrate:"+sess.label, sess.tenant, func() bool {
		c, cerr = migrate.CompileSteps(migrate.Plan{
			Network:      req.Network,
			Properties:   req.Properties,
			Steps:        req.Steps,
			Unordered:    req.Unordered,
			SearchBudget: req.SearchBudget,
		}, sess.plan)
		return cerr == nil
	})
	if !ok {
		httpError(w, http.StatusBadRequest, strings.TrimPrefix(cerr.Error(), "plan: "))
		return
	}
	// Whole-plan admission, decided before the stream opens: every step
	// re-solves at most the plan's full per-state cost, and the steps run
	// sequentially, so one reservation covers the entire sequence. An
	// over-quota migration is a clean 429 here, never a failure mid-plan.
	resv, ok := s.admitTraced(w, sess.plan, tr)
	if !ok {
		return
	}

	events := make(chan migrate.Event, 256)
	clientGone := make(chan struct{})
	run := sess.launchMigrate(func() (*migrate.Result, error) {
		defer close(events)
		defer tr.Finish()
		res, err := migrate.Run(context.Background(), s.eng, c, migrate.RunConfig{
			Verifier:    sess.verifier,
			Reservation: resv, // released by Run
			Store:       s.store,
			Recorder:    s.rec,
			Trace:       tr,
			Sink: func(ev migrate.Event) {
				select {
				case events <- ev:
				case <-clientGone:
					// Client disconnected; keep running, drop the event.
				}
			},
		})
		if err != nil {
			select {
			case events <- migrate.Event{Type: migrate.EvError, Step: -1, PlanStep: -1, Reason: err.Error()}:
			case <-clientGone:
			}
		}
		return res, err
	}, func() {
		// Session deleted while the plan was queued: nothing ran, nothing
		// was reserved beyond the admission we took — hand it back and end
		// the stream.
		resv.Release()
		tr.Finish()
		close(events)
	})
	if run == nil {
		resv.Release()
		tr.Finish()
		httpError(w, http.StatusNotFound, "session deleted")
		return
	}

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	if id := tr.ID(); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	w.WriteHeader(http.StatusOK)
	defer close(clientGone)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			// Everything emitted so far has been flushed; the plan itself
			// finishes on the session worker.
			return
		}
	}
}

// launch enqueues a run and returns immediately; the session worker
// executes queued runs in submission order (run seq and queue position are
// assigned under one lock hold, so they agree). Returns nil if the session
// has been deleted.
func (sess *session) launch(n *topology.Network, baseline bool) *sessionRun {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil
	}
	run := &sessionRun{seq: len(sess.runs), submitted: time.Now(), baseline: baseline, status: "running"}
	sess.runs = append(sess.runs, run)
	sess.queue = append(sess.queue, &queuedRun{run: run, network: n, baseline: baseline})
	sess.lastActive = time.Now()
	sess.mu.Unlock()
	select {
	case sess.wake <- struct{}{}:
	default: // worker already signaled
	}
	return run
}

// launchMigrate queues a migration plan on the session worker, so it runs
// in submission order with the session's baselines and updates (never
// concurrently with them — migration steps and updates mutate the same
// verifier). fn executes the plan; abandon is invoked instead if the
// session is deleted while the plan is still queued. Returns nil if the
// session is already deleted (the caller keeps ownership of the plan's
// reservation and event stream).
func (sess *session) launchMigrate(fn func() (*migrate.Result, error), abandon func()) *sessionRun {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil
	}
	run := &sessionRun{seq: len(sess.runs), submitted: time.Now(), migrate: true, status: "running"}
	sess.runs = append(sess.runs, run)
	sess.queue = append(sess.queue, &queuedRun{run: run, migrateFn: fn, abandon: abandon})
	sess.lastActive = time.Now()
	sess.mu.Unlock()
	select {
	case sess.wake <- struct{}{}:
	default:
	}
	return run
}

// close marks the session deleted and releases its worker. Queued runs are
// abandoned; a queued migration plan's abandon hook releases its
// reservation and closes its event stream. The queue is swapped out under
// sess.mu — the worker dequeues under the same lock, so an entry is either
// abandoned here or executed there, never both.
func (sess *session) close() {
	sess.mu.Lock()
	sess.closed = true
	abandoned := sess.queue
	sess.queue = nil
	sess.mu.Unlock()
	for _, q := range abandoned {
		if q.abandon != nil {
			q.abandon()
		}
	}
	select {
	case sess.wake <- struct{}{}:
	default:
	}
}

// worker drains the session's run queue until the session is deleted.
func (sess *session) worker() {
	for range sess.wake {
		for {
			sess.mu.Lock()
			if sess.closed {
				sess.mu.Unlock()
				return
			}
			if len(sess.queue) == 0 {
				sess.mu.Unlock()
				break
			}
			q := sess.queue[0]
			sess.queue = sess.queue[1:]
			sess.running++
			sess.mu.Unlock()

			if q.migrateFn != nil {
				mres, err := q.migrateFn()
				sess.mu.Lock()
				q.run.migrateResult = mres
				if err != nil {
					q.run.status = "failed"
					q.run.errMsg = err.Error()
				} else {
					q.run.status = "done"
				}
				sess.running--
				sess.lastActive = time.Now()
				sess.mu.Unlock()
				continue
			}

			if sess.store != nil {
				sess.store.SetFingerprint(q.network.Fingerprint())
			}
			var res *delta.Result
			var err error
			if q.baseline {
				res, err = sess.verifier.Baseline(q.network)
			} else {
				res, err = sess.verifier.Update(q.network)
			}
			sess.mu.Lock()
			if err != nil {
				// Includes admission rejections: the run's dirty subset was
				// reserved under the session's tenant and refused. The error
				// (with its retry hint) is the run's recorded status.
				q.run.status = "failed"
				q.run.errMsg = err.Error()
			} else {
				q.run.status = "done"
				q.run.result = res
			}
			sess.running--
			sess.lastActive = time.Now()
			sess.mu.Unlock()
		}
	}
}

// sessionJSON is the GET /v2/sessions/{id} response.
type sessionJSON struct {
	ID          string           `json:"id"`
	Suite       string           `json:"suite"`
	Tenant      string           `json:"tenant,omitempty"`
	Created     time.Time        `json:"created"`
	Fingerprint string           `json:"fingerprint,omitempty"` // pinned network state
	Results     int              `json:"retained_results"`
	Runs        []sessionRunJSON `json:"runs"`
}

type sessionRunJSON struct {
	Seq       int             `json:"seq"`
	Submitted time.Time       `json:"submitted"`
	Baseline  bool            `json:"baseline"`
	Migrate   bool            `json:"migrate,omitempty"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Result    *delta.Result   `json:"result,omitempty"`
	Migration *migrate.Result `json:"migration,omitempty"`
}

func (s *server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	out := sessionJSON{
		ID:          sess.id,
		Suite:       sess.label,
		Tenant:      sess.tenant,
		Created:     sess.created,
		Fingerprint: sess.verifier.Fingerprint(),
		Results:     sess.verifier.ResultCount(),
	}
	sess.mu.Lock()
	for _, run := range sess.runs {
		out.Runs = append(out.Runs, sessionRunJSON{
			Seq:       run.seq,
			Submitted: run.submitted,
			Baseline:  run.baseline,
			Migrate:   run.migrate,
			Status:    run.status,
			Error:     run.errMsg,
			Result:    run.result,
			Migration: run.migrateResult,
		})
	}
	sess.mu.Unlock()
	writeJSON(w, out)
}

func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	if !sessionTenantAllowed(w, r, sess, "") { // DELETE has no body: header or ?tenant=
		return
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.close()
	writeJSON(w, map[string]string{"deleted": sess.id})
}
