package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lightyear/internal/engine"
	"lightyear/internal/plan"
	"lightyear/internal/telemetry"
)

// newTelemetryTestServer builds a service whose engine emits into a live
// recorder, the way main() always wires production lyserve.
func newTelemetryTestServer(t *testing.T) (*httptest.Server, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.New(0)
	eng := engine.New(engine.Options{Workers: 4, Telemetry: rec})
	srv := newServer(eng)
	t.Cleanup(srv.closeEngine)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, rec
}

const tracedPlan = `{
	"network": {"generator": {"kind": "wan", "regions": 2, "routers_per_region": 1,
	            "edge_routers": 2, "dcs_per_region": 1, "peers_per_edge": 2}},
	"properties": [{"name": "wan-peering", "routers": ["edge-0"]}],
	"options": {"wan_regions": 2}
}`

// TestTraceIDPropagation follows one trace ID through the whole v2 surface:
// the X-Trace-Id response header, the accept body, every NDJSON event of
// the run, the job snapshot, and finally the span tree GET /v1/traces/{id}
// serves once the run lands in the recorder's ring.
func TestTraceIDPropagation(t *testing.T) {
	ts, _ := newTelemetryTestServer(t)

	resp, err := http.Post(ts.URL+"/v2/verify", "application/json", bytes.NewBufferString(tracedPlan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v2/verify = %d, want 202 (%s)", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("202 response has no X-Trace-Id header")
	}
	var accept struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accept); err != nil {
		t.Fatal(err)
	}
	if accept.TraceID != traceID {
		t.Fatalf("accept body trace_id %q != header %q", accept.TraceID, traceID)
	}

	// Every event of the run carries the trace ID; the stream closes after
	// the final plan event, by which point the trace is finished.
	evResp, err := http.Get(ts.URL + "/v2/jobs/" + accept.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	events := 0
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev plan.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.TraceID != traceID {
			t.Fatalf("event %q carries trace_id %q, want %q", ev.Type, ev.TraceID, traceID)
		}
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("event stream delivered nothing")
	}

	var job jobV2JSON
	getJSON(t, ts, "/v2/jobs/"+accept.ID, &job)
	if job.TraceID != traceID {
		t.Fatalf("job snapshot trace_id %q, want %q", job.TraceID, traceID)
	}

	var snap telemetry.TraceSnapshot
	getJSON(t, ts, "/v1/traces/"+traceID, &snap)
	if snap.ID != traceID {
		t.Fatalf("trace snapshot id %q, want %q", snap.ID, traceID)
	}
	names := map[string]bool{}
	for _, s := range snap.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"compile", "admit"} {
		if !names[want] {
			t.Errorf("trace has no %q span; roots: %v", want, rootNames(snap))
		}
	}
	problem := false
	for _, s := range snap.Spans {
		if strings.HasPrefix(s.Name, "problem:") {
			problem = true
			if len(s.Children) == 0 {
				t.Errorf("problem span %q has no engine child spans", s.Name)
			}
		}
	}
	if !problem {
		t.Errorf("trace has no problem spans; roots: %v", rootNames(snap))
	}

	// The listing surfaces the same trace.
	var list struct {
		Count  int                       `json:"count"`
		Traces []telemetry.TraceSnapshot `json:"traces"`
	}
	getJSON(t, ts, "/v1/traces", &list)
	found := false
	for _, tr := range list.Traces {
		if tr.ID == traceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s missing from /v1/traces (count=%d)", traceID, list.Count)
	}
}

// TestMetricsEndpoint asserts the exposition surface after a completed run:
// content type, solver counters with non-zero values, and histogram bucket
// series — the same lines the CI smoke greps.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTelemetryTestServer(t)

	resp, err := http.Post(ts.URL+"/v2/verify", "application/json", bytes.NewBufferString(tracedPlan))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("POST /v2/verify = %d, want 202", resp.StatusCode)
	}
	var accept struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accept); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Draining the event stream is a deterministic completion wait: the
	// stream closes only after the final plan event.
	evResp, err := http.Get(ts.URL + "/v2/jobs/" + accept.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, evResp.Body)
	evResp.Body.Close()

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", mResp.StatusCode)
	}
	if ct := mResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE lightyear_checks_solved_total counter",
		`lightyear_checks_solved_total{backend="native",status="ok"}`,
		"lightyear_queue_wait_seconds_bucket",
		"lightyear_solve_seconds_bucket",
		"lightyear_jobs_submitted_total",
		"lightyear_inflight_cost",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The run really solved checks: its solved counter must be non-zero.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `lightyear_checks_solved_total{backend="native",status="ok"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("solved counter is zero: %q", line)
			}
		}
	}
}

// getJSON fetches path and decodes the JSON body, failing on non-200.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d (%s)", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func rootNames(snap telemetry.TraceSnapshot) []string {
	var out []string
	for _, s := range snap.Spans {
		out = append(out, s.Name)
	}
	return out
}
