package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lightyear/internal/engine"
)

// TestV2SolverBackendAndStats: the request's solver option routes the job to
// the portfolio backend, the per-property stats say so, and /v1/stats
// exposes the per-backend counters.
func TestV2SolverBackendAndStats(t *testing.T) {
	ts := newTestServer(t)
	_, accepted := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "fig1"}},
		"properties": [{"name": "sat-stress"}],
		"options": {"solver": {"backend": "portfolio"}}
	}`)
	id, _ := accepted["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %+v", accepted)
	}
	job := waitDone(t, ts, id)
	if job.OK == nil || !*job.OK {
		t.Fatalf("stress plan not ok: %+v", job)
	}
	stats := job.Properties[0].Stats
	if stats == nil || stats.Backend != "portfolio" {
		t.Fatalf("property stats backend = %+v, want portfolio", stats)
	}
	if stats.Raced == 0 {
		t.Fatalf("no racing recorded: %+v", stats)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Engine engine.Stats `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	bs, ok := st.Engine.Backends["portfolio"]
	if !ok || bs.Solved == 0 || bs.Raced == 0 {
		t.Fatalf("/v1/stats backend counters: %+v", st.Engine.Backends)
	}
}

// TestV2UnknownStatusOverHTTP: a starved conflict budget yields per-check
// "unknown" status in the job's reports — visibly distinct from "fail".
func TestV2UnknownStatusOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	_, accepted := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "fig1"}},
		"properties": [{"name": "sat-stress"}],
		"options": {"solver": {"backend": "native", "budget": 1}}
	}`)
	id, _ := accepted["id"].(string)
	job := waitDone(t, ts, id)
	if job.OK == nil || *job.OK {
		t.Fatal("budget-starved job reported ok")
	}
	unknown, failed := 0, 0
	for _, pb := range job.Properties[0].Problems {
		if pb.Report == nil {
			t.Fatalf("problem without report: %+v", pb)
		}
		unknown += pb.Report.NumUnknown
		failed += pb.Report.NumFailed
	}
	if unknown == 0 || failed != 0 {
		t.Fatalf("num_unknown=%d num_failed=%d, want >0 and 0", unknown, failed)
	}

	// An unknown backend name — the retired tiered one included — is a 400
	// naming the real backends, not a wedged job.
	for _, name := range []string{"bogus", "tiered"} {
		resp, body := postJSON(t, ts.URL+"/v2/verify", `{
			"network": {"generator": {"kind": "fig1"}},
			"properties": [{"name": "sat-stress"}],
			"options": {"solver": {"backend": "`+name+`"}}
		}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("backend %s = %d (%v), want 400", name, resp.StatusCode, body)
		}
		msg, _ := body["error"].(string)
		for _, have := range []string{"native", "portfolio", "remote"} {
			if !strings.Contains(msg, have) {
				t.Errorf("backend %s rejection %q does not name %s", name, msg, have)
			}
		}
	}
}

// TestEventWindowTruncation: with a small -event-window, a late subscriber
// receives one truncation marker followed by only the retained suffix,
// ending with the plan event.
func TestEventWindowTruncation(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	srv := newServer(eng)
	t.Cleanup(srv.closeEngine)
	srv.eventWindow = 8
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	_, accepted := postJSON(t, ts.URL+"/v2/verify",
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}]}`)
	id := accepted["id"].(string)
	waitDone(t, ts, id)

	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// fig1-no-transit emits well over 8 events (one per check plus
	// start/problem/property/plan), so the history must have been truncated.
	if len(lines) != 9 { // marker + 8 retained events
		t.Fatalf("got %d events, want 9 (truncated marker + window)", len(lines))
	}
	first := lines[0]
	if first["type"] != "truncated" {
		t.Fatalf("first event = %+v, want the truncated marker", first)
	}
	if dropped, _ := first["dropped"].(float64); dropped == 0 {
		t.Fatalf("truncated marker lacks dropped count: %+v", first)
	}
	last := lines[len(lines)-1]
	if last["type"] != "plan" {
		t.Fatalf("stream did not end with the plan event: %+v", last)
	}
}
