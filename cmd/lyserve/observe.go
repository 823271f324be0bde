package main

import (
	"log/slog"
	"net/http"
	"strconv"

	"lightyear/internal/engine"
	"lightyear/internal/fabric"
	"lightyear/internal/store"
)

// handleMetrics serves the Prometheus text exposition of the process
// recorder.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.WriteMetrics(w); err != nil {
		srvLog.Warn("write metrics failed", slog.Any("error", err))
	}
}

// handleTraces serves the recorder's retained completed traces, newest
// first; ?limit=N caps the count.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	traces := s.rec.Traces(limit)
	writeJSON(w, map[string]any{"count": len(traces), "traces": traces})
}

// handleTrace serves one completed trace by ID (the X-Trace-Id a verify
// request answered with).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	snap, ok := s.rec.Trace(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such trace (not finished yet, or evicted from the ring)")
		return
	}
	writeJSON(w, snap)
}

// statsJSON is the GET /v1/stats response.
type statsJSON struct {
	Engine   engine.Stats `json:"engine"`
	Jobs     int          `json:"jobs"`
	Sessions int          `json:"sessions"`
	Store    *store.Stats `json:"store,omitempty"`
	// Fabric aggregates the distributed solver pools' per-worker counters;
	// present whenever a remote backend has been constructed.
	Fabric *fabric.Stats `json:"fabric,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, sessions := len(s.jobs), len(s.sessions)
	s.mu.Unlock()
	out := statsJSON{Engine: s.eng.Stats(), Jobs: jobs, Sessions: sessions, Fabric: fabric.Snapshot()}
	if st, ok := s.eng.Cache().(*store.Store); ok {
		stats := st.Stats()
		out.Store = &stats
	}
	writeJSON(w, out)
}
