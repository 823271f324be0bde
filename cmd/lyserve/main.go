// Command lyserve is the Lightyear verification service: an HTTP JSON API
// that runs verification jobs asynchronously on a shared internal/engine
// Engine, so concurrent requests dedup identical local checks and reuse the
// process-wide result cache.
//
// Usage:
//
//	lyserve [-addr :8080] [-workers N] [-cache N] [-store DIR] [-store-retain N]
//	        [-job-ttl 1h] [-session-ttl 24h] [-event-window N]
//	        [-max-inflight N] [-tenant-quota N] [-max-queue N]
//	        [-tenant-weights t1=3,t2=1] [-trace-cap N] [-pprof]
//	        [-solver remote:host1:9101,host2:9101]
//
// With -store DIR the engine's result cache is the internal/store
// persistent journal in DIR, so a redeployed lyserve serves previously
// solved checks without re-solving them; -store-retain N keeps only the
// results of the N most recently verified network fingerprints when the
// journal is compacted on startup. Completed jobs are garbage-collected
// -job-ttl after completion (default 1h); sessions idle longer than
// -session-ttl (default 24h; 0 disables) are expired and deleted — an
// update to an expired session is 404, like an explicit DELETE.
// -event-window N (default 4096) bounds the per-job event history retained
// for GET /v2/jobs/{id}/events replay: when a large plan emits more events
// than the window, the oldest are evicted and late subscribers receive a
// single {"type":"truncated","dropped":K} marker in their place.
//
// # Tenancy and admission control
//
// Every request runs as a tenant: the X-Tenant header, the ?tenant= query
// parameter, or the plan's {"options": {"tenant": ...}} field (in that
// precedence), defaulting to "default". The engine accounts each tenant's
// admitted, rejected, queued, and in-flight work (GET /v1/stats →
// engine.tenants) and dispatches admitted workloads weighted-fair across
// tenants, so one tenant flooding the service cannot starve another.
//
// -max-inflight bounds the total in-flight checks across tenants,
// -tenant-quota the in-flight checks per tenant, and -max-queue the
// backlog of workloads awaiting dispatch (each 0 = unlimited). A plan is
// admitted as one unit — its compiled check count (plan.Compiled.Cost) is
// reserved up front — and a rejected plan is answered synchronously with
// HTTP 429, a Retry-After header (seconds), and a JSON body carrying the
// tenant, cost, violated limit, and retry_after_ms; nothing of a rejected
// plan is enqueued. A body with "permanent": true marks a plan whose cost
// exceeds the limit outright — retrying at that size can never succeed;
// split the plan or raise the limit. Session baselines and updates are admitted the same
// way inside the session worker (an over-quota update fails the run with
// the admission error in its status); session creation prechecks the
// baseline cost and answers 429 early when it cannot be admitted. Session
// updates and deletion require the caller's tenant to match the session's
// (403 otherwise) — mutations run under, and are charged to, the session
// tenant's quota.
//
// # v2 API — declarative verification plans
//
// The v2 surface accepts internal/plan requests: one document composing a
// network source, a list of properties (each optionally scoped to routers
// or regions), and execution options. All request bodies are capped at
// 1 MiB (413 beyond that).
//
//	POST /v2/verify
//	    Body: a plan.Request, e.g.
//	      {"network":    {"generator": {"kind": "wan", "regions": 2}},
//	       "properties": [{"name": "wan-peering", "routers": ["edge-0"]},
//	                      {"name": "wan-ip-reuse"}],
//	       "options":    {"wan_regions": 2,
//	                      "solver": {"backend": "portfolio"}}}
//	    The network source is one of "config" (inline DSL), "generator",
//	    or "baseline" (a session id whose pinned network to verify).
//	    Returns 202 with {"id", "status_url", "events_url"}. All properties
//	    run as one plan on the shared engine, so checks shared across
//	    properties are solved once. The optional "solver" option routes the
//	    request's checks to a solver backend ("native" or "portfolio",
//	    optionally with a conflict "budget") — a per-job routing decision
//	    on the shared engine, so concurrent tenants may use different
//	    backends. Checks whose budget ran out report status
//	    "unknown", distinct from "fail".
//
//	GET /v2/jobs/{id}
//	    The job grouped per property: status, per-problem completion, and —
//	    once complete — each property's problem reports plus aggregated
//	    cache/dedup stats.
//
//	GET /v2/jobs/{id}/events
//	    NDJSON stream of the run's progress events: a "start" event per
//	    problem as it is submitted (with its check total), one "check"
//	    event per completed engine check (with cache/dedup provenance and
//	    its ok/fail/unknown status), a "problem" event per finished problem
//	    (with its stats), a "property" summary event each, and a final
//	    "plan" event, after which the stream closes. Events already emitted
//	    are replayed first, so late subscribers see the full history (or,
//	    past the -event-window, a truncation marker followed by the
//	    retained suffix).
//
//	POST /v2/sessions
//	    Body: a plan.Request. Pins the request's network as an incremental
//	    session baseline and verifies the full (scoped) property list.
//	    Updates inherit the plan's properties and scoping.
//
//	POST /v2/sessions/{id}/update
//	    Body: {"network": <plan network source>}. Diffs the new network
//	    against the pinned state and re-solves only dirtied checks. The
//	    session pins properties and options: a body carrying either is a
//	    400.
//
//	POST /v2/sessions/{id}/migrate
//	    Body: {"steps": [...], "unordered": bool, "search_budget": N} — a
//	    migration plan (internal/migrate) whose baseline, properties, and
//	    options are the session's. Each step is {"label", "config"} (a full
//	    replacement network) or {"label", "mutation"} (a serializable config
//	    edit applied to the previous state). The response is a synchronous
//	    NDJSON stream of step-indexed events (step_started, problem, check,
//	    step_ok, step_violated, order_found, order_infeasible, then done
//	    with the full result, or error): every intermediate state is
//	    verified as an incremental delta on the session's verifier, and the
//	    stream reports the first violating step with its failing checks and
//	    witnesses. With "unordered": true the steps are an unordered change
//	    set and the run searches for a safe ordering (events carry
//	    "search": true while exploring). The whole plan is admitted as one
//	    reservation up front (429 before the first step if over quota). On
//	    success the final state becomes the session's pinned baseline —
//	    follow-up updates delta against the migrated network; on violation,
//	    infeasibility, or error the original pinned state is restored. The
//	    plan also appears in the session's run history ("migrate": true,
//	    with its result) for later GETs.
//
//	GET /v2/sessions/{id}
//	    The session's pinned network fingerprint, retained result count,
//	    and run history: each baseline, update, or migration run with its
//	    status and delta (or migration) result.
//
//	DELETE /v2/sessions/{id}
//	    Deletes the session; its queued runs are abandoned and later
//	    requests for it answer 404.
//
// # Observability
//
// The service always runs with an internal/telemetry recorder: the engine,
// admission layer, solver backends, result cache, and persistent store all
// emit into it.
//
//	GET /v1/stats
//	    Engine counters (including per-solver-backend counters: solved,
//	    unknown, variants raced, solve time), job and session counts, and —
//	    with -store — persistent-store counters.
//
//	GET /metrics
//	    Prometheus text exposition (version 0.0.4): lightyear_* counters,
//	    histograms (solve time per backend, queue wait), and gauges
//	    (in-flight cost, queue depth, cache occupancy and hit ratio, store
//	    journal size).
//
//	GET /v1/traces[?limit=N]
//	    The most recent completed workload traces, newest first, from the
//	    recorder's bounded ring (-trace-cap entries).
//
//	GET /v1/traces/{id}
//	    One completed trace as a span tree (compile, admit, queue,
//	    dispatch, solve:<backend>, cache, store), with per-span offsets,
//	    durations, and attributes.
//
// Every verification request is traced end to end: POST /v2/verify
// answers with an X-Trace-Id header (and a trace_id field in the 202
// body and job snapshots), every NDJSON event of the run
// carries the same trace_id, and once the run completes the trace is
// retrievable at /v1/traces/{id}.
//
// -tenant-weights t1=3,t2=1 sets per-tenant weighted-fair dispatch weights
// (unlisted tenants weigh 1). -pprof additionally mounts the standard
// net/http/pprof handlers under /debug/pprof/ — off by default since the
// profiles can leak operational detail.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lightyear/internal/corpus"
	"lightyear/internal/engine"
	"lightyear/internal/fabric"
	"lightyear/internal/logging"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/solver"
	"lightyear/internal/store"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// srvLog is the service's structured logger; main replaces it with the one
// -log-level/-log-format configure. The default routes through slog's
// process default so in-test servers still log somewhere sensible.
var srvLog = logging.Component(slog.Default(), "lyserve")

// defaultJobTTL is how long completed jobs stay queryable before GC.
const defaultJobTTL = time.Hour

// defaultSessionTTL is how long an idle session (no queued or running
// work, no recent run) survives before GC.
const defaultSessionTTL = 24 * time.Hour

// defaultEventWindow is the per-job event-history bound (-event-window).
const defaultEventWindow = 4096

// maxRequestBody caps every JSON request body read by the service.
const maxRequestBody = 1 << 20 // 1 MiB

// defaultShutdownGrace bounds how long a SIGINT/SIGTERM shutdown waits for
// in-flight requests (including NDJSON event streams) to drain.
const defaultShutdownGrace = 15 * time.Second

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 0, "engine result-cache capacity (0 = default, <0 disables; ignored with -store)")
		storeDir    = flag.String("store", "", "persistent result-store directory (replaces the in-memory cache)")
		storeRetain = flag.Int("store-retain", 0, "keep only the N most recently written network fingerprints in the store (0 = all)")
		jobTTL      = flag.Duration("job-ttl", defaultJobTTL, "retention of completed jobs")
		sessTTL     = flag.Duration("session-ttl", defaultSessionTTL, "expiry of idle sessions (0 = never)")
		evWindow    = flag.Int("event-window", defaultEventWindow, "per-job event-history entries retained for /events replay (<=0 = unbounded)")
		maxInflight = flag.Int("max-inflight", 0, "admission: max in-flight checks across all tenants (0 = unlimited)")
		tenantQuota = flag.Int("tenant-quota", 0, "admission: max in-flight checks per tenant (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "admission: max workloads awaiting dispatch (0 = unlimited)")
		weightsSpec = flag.String("tenant-weights", "", "per-tenant dispatch weights, e.g. t1=3,t2=1 (unlisted tenants weigh 1)")
		traceCap    = flag.Int("trace-cap", 0, "completed traces retained for /v1/traces (0 = default)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		solverSpec  = flag.String("solver", "", "default solver backend: native or portfolio as backend[:budget], or remote:host1,host2 for a worker fleet")
		slowConf    = flag.Int64("slow-conflicts", 0, "log any check burning at least this many CDCL conflicts (0 = default, <0 disables)")
		slowTime    = flag.Duration("slow-solve", 0, "log any check spending at least this long in the solver (0 = default, <0 disables)")
		grace       = flag.Duration("shutdown-grace", defaultShutdownGrace, "max wait for in-flight requests to drain on SIGINT/SIGTERM")
	)
	var logCfg logging.Config
	logCfg.RegisterFlags(flag.CommandLine, "json")
	flag.Parse()

	logger, err := logCfg.Build(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lyserve: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	srvLog = logging.Component(logger, "lyserve")

	weights, err := engine.ParseWeights(*weightsSpec)
	if err != nil {
		srvLog.Error("bad -tenant-weights", slog.Any("error", err))
		os.Exit(1)
	}
	rec := telemetry.New(*traceCap)
	// Remote solver backends (the -solver flag or per-request solver specs)
	// report into the same sinks as the engine.
	fabric.SetTelemetry(rec)
	fabric.SetLogger(logger)
	// Corpus network sources (plan documents with "corpus") count their
	// generations into the same /metrics recorder.
	corpus.SetTelemetry(rec)
	opts := engine.Options{
		Workers:   *workers,
		CacheSize: *cacheSize,
		Telemetry: rec,
		Logger:    logger,
		SlowCheck: engine.SlowCheckPolicy{Conflicts: *slowConf, SolveTime: *slowTime},
		Admission: engine.Admission{
			MaxInFlightChecks: *maxInflight,
			PerTenantQuota:    *tenantQuota,
			MaxQueueDepth:     *maxQueue,
			Weights:           weights,
		},
	}
	if *solverSpec != "" {
		spec, err := solver.ParseSpec(*solverSpec)
		if err != nil {
			srvLog.Error("bad -solver", slog.Any("error", err))
			os.Exit(1)
		}
		b, err := solver.New(spec)
		if err != nil {
			srvLog.Error("bad -solver", slog.Any("error", err))
			os.Exit(1)
		}
		opts.Backend = b
		srvLog.Info("default solver backend", slog.String("solver", spec.String()))
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.OpenOptions(*storeDir, store.Options{MaxFingerprints: *storeRetain})
		if err != nil {
			srvLog.Error("store open failed", slog.String("dir", *storeDir), slog.Any("error", err))
			os.Exit(1)
		}
		st.SetTelemetry(rec)
		st.SetLogger(logger)
		srvLog.Info("store opened",
			slog.String("dir", *storeDir),
			slog.Int("results", st.Len()),
			slog.Int("evicted", st.Stats().Evicted))
		opts.Cache = st
	}
	eng := engine.New(opts)
	srv := newServer(eng)
	srv.store = st
	srv.ttl = *jobTTL
	srv.sessionTTL = *sessTTL
	srv.eventWindow = *evWindow
	srv.pprof = *pprofOn
	go srv.janitor()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	srvLog.Info("listening",
		slog.String("addr", *addr),
		slog.String("engine", eng.String()),
		slog.String("suites", strings.Join(netgen.SuiteNames(), ", ")))

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections, wake
	// every NDJSON event stream so it flushes and closes, wait up to the
	// grace period for in-flight requests, then close the sessions and the
	// engine (draining admitted jobs) and flush the store journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		srvLog.Error("server failed", slog.Any("error", err))
		os.Exit(1)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		srvLog.Info("shutdown signal received", slog.Duration("grace", *grace))
	}
	srv.beginShutdown()
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		srvLog.Warn("shutdown grace period expired with requests in flight", slog.Any("error", err))
	}
	srv.closeEngine()
	if st != nil {
		if err := st.Close(); err != nil {
			srvLog.Warn("store close failed", slog.Any("error", err))
		}
	}
	srvLog.Info("shutdown complete")
}

// server owns the engine and the in-memory job and session tables.
type server struct {
	eng         *engine.Engine
	rec         *telemetry.Recorder // the engine's recorder; nil disables /metrics and traces
	store       *store.Store        // nil without -store; provenance tagging only
	ttl         time.Duration       // completed-job retention
	sessionTTL  time.Duration       // idle-session expiry (0 = never)
	eventWindow int                 // per-job event-history bound (<=0 = unbounded)
	pprof       bool                // mount /debug/pprof/ handlers

	started time.Time // process start, for /v1/status uptime

	// shutdown is closed once when graceful shutdown begins: NDJSON event
	// streams flush and close, and the janitor exits.
	shutdown     chan struct{}
	shutdownOnce sync.Once

	mu       sync.Mutex
	seq      int
	jobs     map[string]*serviceJob
	sseq     int
	sessions map[string]*session
	// sessionWorkers counts running session workers; Add happens under mu
	// before shutdown, so closeEngine's Wait sees every one.
	sessionWorkers sync.WaitGroup
}

func newServer(eng *engine.Engine) *server {
	return &server{
		eng:         eng,
		rec:         eng.Telemetry(),
		ttl:         defaultJobTTL,
		sessionTTL:  defaultSessionTTL,
		eventWindow: defaultEventWindow,
		started:     time.Now(),
		shutdown:    make(chan struct{}),
		jobs:        make(map[string]*serviceJob),
		sessions:    make(map[string]*session),
	}
}

// beginShutdown signals every long-lived handler and the janitor that the
// process is draining. Safe to call more than once.
func (s *server) beginShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// closeEngine closes every session, abandoning its queued runs, waits for
// each session worker — deleted and expired sessions' too — to finish the
// run it is executing and return, and only then closes the engine. Closing
// the engine first would let a worker start its next queued run on a
// closed engine, which panics.
func (s *server) closeEngine() {
	s.beginShutdown() // createSession starts no worker from here on
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.close()
	}
	s.sessionWorkers.Wait()
	s.eng.Close()
}

// requestTenant resolves the tenant a request runs as: the X-Tenant
// header, then the ?tenant= query parameter, then the tenant named in the
// request body (a plan's options), then the engine default. The transport
// identity wins over the body so a gateway-asserted header cannot be
// overridden by request content.
func requestTenant(r *http.Request, bodyTenant string) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if bodyTenant != "" {
		return bodyTenant
	}
	return engine.DefaultTenant
}

// admissionError answers an engine admission rejection as HTTP 429 with a
// Retry-After header (whole seconds, rounded up) and a JSON body carrying
// the typed fields, then reports true. Non-admission errors report false.
func admissionError(w http.ResponseWriter, err error) bool {
	var adm *engine.ErrAdmission
	if !errors.As(err, &adm) {
		return false
	}
	secs := int(adm.RetryAfter.Seconds())
	if adm.RetryAfter > time.Duration(secs)*time.Second {
		secs++ // round up so clients never retry early
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	body := map[string]any{
		"error":          adm.Error(),
		"tenant":         adm.Tenant,
		"cost":           adm.Cost,
		"limit":          adm.Limit,
		"reason":         adm.Reason,
		"retry_after_ms": adm.RetryAfter.Milliseconds(),
	}
	if adm.Permanent {
		// The cost exceeds the limit outright: retrying at this cost can
		// never succeed — clients should split the request, not back off.
		body["permanent"] = true
	}
	json.NewEncoder(w).Encode(body)
	return true
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)

	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/status", s.handleStatus)

	mux.HandleFunc("POST /v2/verify", s.handleVerifyV2)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobV2)
	mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v2/sessions", s.handleSessionCreateV2)
	mux.HandleFunc("POST /v2/sessions/{id}/update", s.handleSessionUpdateV2)
	mux.HandleFunc("POST /v2/sessions/{id}/migrate", s.handleSessionMigrate)
	mux.HandleFunc("GET /v2/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v2/sessions/{id}", s.handleSessionDelete)

	if s.pprof {
		// Opt-in: profiles expose operational detail, so the handlers are
		// mounted only under -pprof.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// decodeBody decodes a JSON request body capped at maxRequestBody,
// answering 413 for oversized bodies and 400 for malformed ones. The body
// must hold exactly one JSON document: a second value after it is a 400,
// never silently ignored. Returns false when the request has been answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		switch err = dec.Decode(&extra); {
		case errors.Is(err, io.EOF):
			err = nil
		case err == nil:
			err = errors.New("trailing data after the JSON document")
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		}
		return false
	}
	return true
}

// rejectConfigPath enforces the service's filesystem boundary: plan network
// sources may name server-local files only through the CLI, never over
// HTTP (a remote config_path would let callers probe and partially read
// any server-readable file via echoed parse errors). Answers 400 and
// returns false when the source uses config_path.
func rejectConfigPath(w http.ResponseWriter, ns plan.Network) bool {
	if ns.ConfigPath != "" {
		httpError(w, http.StatusBadRequest,
			"config_path is not supported over HTTP; inline the configuration as \"config\"")
		return false
	}
	return true
}

// ResolveBaseline implements plan.Resolver: a "baseline" network reference
// names a session whose pinned state becomes the plan's network, verified
// under the session's WAN region count unless the plan overrides it.
func (s *server) ResolveBaseline(ref string) (*topology.Network, int, error) {
	s.mu.Lock()
	sess, ok := s.sessions[ref]
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("baseline %q names no live session", ref)
	}
	n := sess.verifier.PinnedNetwork()
	if n == nil {
		return nil, 0, fmt.Errorf("session %q has not pinned a baseline yet", ref)
	}
	return n, sess.plan.Params.Regions, nil
}

// janitor periodically drops completed jobs older than the job TTL and
// sessions idle longer than the session TTL. It runs for the life of the
// process; the sweep interval tracks the shorter of the two TTLs so a
// tight -session-ttl is honored even under the default hour-long -job-ttl.
func (s *server) janitor() {
	interval := s.ttl / 10
	if s.sessionTTL > 0 && s.sessionTTL/10 < interval {
		interval = s.sessionTTL / 10
	}
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			s.gc(now)
		case <-s.shutdown:
			return
		}
	}
}

// gc removes jobs that completed before now-jobTTL, and expires sessions
// whose last activity (creation, queued update, or completed run) is older
// than now-sessionTTL. Running jobs and sessions with queued or running
// work are never collected. Returns jobs removed + sessions expired.
func (s *server) gc(now time.Time) int {
	cutoff := now.Add(-s.ttl)
	s.mu.Lock()
	removed := 0
	for id, j := range s.jobs {
		if done, at := j.doneAt(); done && at.Before(cutoff) {
			delete(s.jobs, id)
			removed++
		}
	}
	var expired []*session
	if s.sessionTTL > 0 {
		sessCutoff := now.Add(-s.sessionTTL)
		for id, sess := range s.sessions {
			// expireIfIdle marks the session closed atomically with the
			// idleness check, so an update racing this sweep either lands
			// before it (the session is no longer idle and survives) or is
			// refused by launch() — never accepted and then dropped.
			if sess.expireIfIdle(sessCutoff) {
				delete(s.sessions, id)
				expired = append(expired, sess)
			}
		}
	}
	s.mu.Unlock()
	for _, sess := range expired {
		sess.close() // releases the worker; closed was already set
		srvLog.Info("session expired",
			slog.String("session", sess.id),
			slog.String(logging.KeyTenant, sess.tenant),
			slog.Duration("idle_beyond", s.sessionTTL))
	}
	return removed + len(expired)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		srvLog.Warn("encode response failed", slog.Any("error", err))
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
