package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lightyear/internal/config"
	"lightyear/internal/corpus"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
)

// serve-corpus: a fresh lyserve process on loopback, driven by a
// closed-loop client. Each request POSTs /v2/verify for a distinct seeded
// corpus member — clean or with a planted bug — and reads the NDJSON event
// stream to its final "plan" event. It is the only workload that crosses
// HTTP, admission under concurrency (in its memory phase), corpus
// generation and config parsing, cross-request cache sharing, and the
// FAIL/witness/report path.

const (
	// timedClients is how many clients the timed loop runs. One leaves a
	// CPU of two for lyserve's garbage collector and the client: with two
	// clients saturating both, the run-to-run spread of the times was up
	// to twice as wide under the same load from outside.
	timedClients = 1
	// memClients is how many clients the memory phase runs, so admission
	// and the shared cache also serve concurrent requests, which are graded.
	memClients = 2
)

// jobTTL is the timed lyserve's retention of completed jobs: long enough
// that a stream is always subscribed before its job can be dropped, short
// enough to keep the server's heap near the requests in flight.
const jobTTL = "500ms"

// serveStarts is how many lyserve processes set-up starts (keeping the
// last) to report the median time to ready.
const serveStarts = 11

// member names the i-th corpus member of a run: a fixed cycle of four
// shapes, each used for two consecutive members (so a traced run can pair
// an untraced and a traced request of the same shape), half of them with a
// planted bug cycling through every plantable property, at seeds no other
// run index shares. The middle size (ring of 8, about 4.3k checks) fills
// half the cycle, between a ring of 6 (2.4k) and a tree of 13 routers
// (9.6k), so the median lands inside one size's cluster rather than on the
// edge between two, where it would jump between them from run to run.
func member(seed int64, i int64, small bool) string {
	s := seed*1_000_000 + i
	bugs := corpus.BugNames()
	bug := bugs[int((i/8+seed)%int64(len(bugs)))]
	shape := (i / 2) % 4
	if small {
		if shape%2 == 0 {
			return fmt.Sprintf("ring:%d:size=4", s)
		}
		return fmt.Sprintf("ring:%d:size=4,bug=%s", s, bug)
	}
	switch shape {
	case 0:
		return fmt.Sprintf("ring:%d:size=6", s)
	case 1:
		return fmt.Sprintf("ring:%d:size=8,bug=%s", s, bug)
	case 2:
		return fmt.Sprintf("ring:%d:size=8", s)
	default:
		return fmt.Sprintf("tree:%d:depth=2,fanout=3,bug=%s", s, bug)
	}
}

func corpusRequest(ref string) plan.Request {
	return plan.Request{
		Network:    plan.Network{Corpus: ref},
		Properties: []plan.Property{{Name: corpus.PropertySuite}},
	}
}

// lyserve is one lyserve process on a loopback port.
type lyserve struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startLyserve starts lyserve, keeping completed jobs for ttl, and waits
// until /readyz answers 200, returning the time from process start to ready.
func startLyserve(bin, ttl string) (*lyserve, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("serve-corpus needs --lyserve")
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	// The event history is unbounded: a stream subscribed after its job
	// emitted more than the default window would start with a truncation
	// marker instead of the problem events the oracle grades.
	cmd := exec.Command(bin, "-addr", addr, "-job-ttl", ttl, "-event-window", "0")
	// Polling /readyz from the start would compete for the CPUs lyserve
	// starts on; polling begins when lyserve logs that it is listening.
	listening := &logWatch{want: []byte(`"msg":"listening"`), seen: make(chan struct{})}
	cmd.Stderr = listening
	s := &lyserve{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := t0.Add(30 * time.Second)
	select {
	case <-listening.seen:
	case err := <-s.exited:
		return nil, 0, fmt.Errorf("lyserve exited before ready: %v", err)
	case <-time.After(time.Until(deadline)):
		s.stop()
		return nil, 0, errors.New("lyserve did not log that it is listening within 30s")
	}
	probe := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("lyserve exited before ready: %v", err)
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(t0), nil
			}
		}
		// Start-up takes milliseconds; a coarser poll would quantize it.
		time.Sleep(100 * time.Microsecond)
	}
	s.stop()
	return nil, 0, errors.New("lyserve not ready after 30s")
}

// logWatch is lyserve's standard error: it discards the log and closes
// seen once a line containing want has been written.
type logWatch struct {
	want []byte
	seen chan struct{}
	buf  []byte
}

// Write is called by one goroutine, the one os/exec copies the pipe with.
func (w *logWatch) Write(p []byte) (int, error) {
	if w.buf == nil && w.want == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if bytes.Contains(w.buf, w.want) {
		close(w.seen)
		w.buf, w.want = nil, nil
	} else if i := bytes.LastIndexByte(w.buf, '\n'); i >= 0 {
		w.buf = append(w.buf[:0], w.buf[i+1:]...)
	}
	return len(p), nil
}

// stop sends SIGTERM and waits for the process to exit, killing it if it
// outlives its shutdown grace.
func (s *lyserve) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// httpResult is one request's timings and what its event stream said.
type httpResult struct {
	verdictMs, firstMs float64
	events, checks     int
	unknowns           int
	problems           map[string]bool
}

// verdicts reduces the stream for comparison with an in-process replay
// (the stream does not report distinct keys).
func (r httpResult) verdicts() verdicts {
	return verdicts{checks: r.checks, problems: r.problems, unknowns: r.unknowns}
}

// streamEvent is the part of a plan event the client reads.
type streamEvent struct {
	Type    string `json:"type"`
	Problem string `json:"problem"`
	OK      *bool  `json:"ok"`
	Total   int    `json:"total"`
	Dropped int    `json:"dropped"`
}

var (
	checkPrefix   = []byte(`{"type":"check"`)
	unknownStatus = []byte(`"status":"unknown"`)
)

// verify POSTs one plan and reads its event stream to the final "plan"
// event. A refusal (429), a server error or a broken stream is an error.
// With a tracer, the POST and the stream are spans under root.
func (s *lyserve) verify(client *http.Client, body []byte, tr *tracer, op, root int) (httpResult, error) {
	r := httpResult{problems: make(map[string]bool)}
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		id := tr.begin(name, root, op)
		return func() { tr.end(id) }
	}
	t0 := time.Now()
	endPost := span("lyserve.post")
	resp, err := client.Post(s.base+"/v2/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		endPost()
		return r, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	endPost()
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return r, fmt.Errorf("POST /v2/verify: %d %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var acc struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(b, &acc); err != nil || acc.EventsURL == "" {
		return r, fmt.Errorf("POST /v2/verify: bad body %q", b)
	}

	endStream := span("lyserve.stream")
	defer endStream()
	resp, err = client.Get(s.base + acc.EventsURL)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("GET %s: %d", acc.EventsURL, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for !done && sc.Scan() {
		line := sc.Bytes()
		if r.events == 0 {
			r.firstMs = sinceMs(t0)
		}
		r.events++
		// Per-check events are most of the stream; only their status
		// matters here, so they are not decoded.
		if bytes.HasPrefix(line, checkPrefix) {
			if bytes.Contains(line, unknownStatus) {
				r.unknowns++
			}
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return r, fmt.Errorf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "start":
			r.checks += ev.Total
		case "problem":
			r.problems[ev.Problem] = ev.OK != nil && *ev.OK
		case "plan":
			done = true
		case "truncated":
			return r, fmt.Errorf("event stream lost %d events", ev.Dropped)
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !done {
		return r, errors.New("event stream ended before the plan event")
	}
	r.verdictMs = sinceMs(t0)
	return r, nil
}

// corpusErrors is the serve-corpus oracle: every problem the plan compiles
// to is reported; a clean member passes every problem; a planted member
// fails, and only on problems of the planted property.
func corpusErrors(ref string, v verdicts) []string {
	c, err := plan.Compile(corpusRequest(ref), nil)
	if err != nil {
		return []string{err.Error()}
	}
	m, err := corpus.Parse(ref)
	if err != nil {
		return []string{err.Error()}
	}
	gt, err := m.Plant()
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	failing := v.failing()
	if want := len(c.Problems(c.Network)); len(v.problems) != want {
		errs = append(errs, fmt.Sprintf("%d problems reported, the plan has %d", len(v.problems), want))
	}
	if v.unknowns > 0 {
		errs = append(errs, fmt.Sprintf("%d unknown checks", v.unknowns))
	}
	if gt == nil {
		if len(failing) > 0 {
			errs = append(errs, fmt.Sprintf("clean member failed %v", failing))
		}
		return errs
	}
	hit := 0
	for _, name := range failing {
		if strings.HasPrefix(name, gt.Property+"@") {
			hit++
		} else {
			errs = append(errs, fmt.Sprintf("planted %s, but %s failed", gt.Property, name))
		}
	}
	if hit == 0 {
		errs = append(errs, fmt.Sprintf("planted %s not detected", gt.Property))
	}
	return errs
}

func requestBody(ref string) []byte {
	b, _ := json.Marshal(corpusRequest(ref)) // plain strings and slices always marshal
	return b
}

// memMembers is how many members the memory phase verifies.
const memMembers = 16

func runServeCorpus(o options) (*outcome, error) {
	out := &outcome{params: map[string]any{"clients": timedClients, "property": corpus.PropertySuite,
		"job_ttl": jobTTL, "memory_members": memMembers, "memory_clients": memClients,
		"members": []string{member(o.seed, 0, o.small), member(o.seed, 2, o.small), member(o.seed, 4, o.small), member(o.seed, 6, o.small)}}}
	var srv *lyserve
	for i := 0; i < serveStarts; i++ {
		if srv != nil {
			srv.stop()
		}
		s, ready, err := startLyserve(o.lyserve, jobTTL)
		if err != nil {
			return nil, err
		}
		srv = s
		out.setupS = append(out.setupS, ready.Seconds())
	}
	client := &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * memClients}}
	defer client.CloseIdleConnections()
	if o.trace {
		defer srv.stop()
		return out, serveTraced(o, srv, client, out)
	}

	end := o.deadline()
	t0 := time.Now()
	timed := drive(srv, client, o, timedClients, func(i int64) bool { return i < timedClients || time.Now().Before(end) })
	out.busyS = time.Since(t0).Seconds()
	srv.stop()
	for _, s := range timed {
		if s.err == nil {
			out.verdictMs = append(out.verdictMs, s.r.verdictMs)
			out.firstMs = append(out.firstMs, s.r.firstMs)
			out.checks += s.r.checks
		}
	}

	// Peak memory comes from a second, fresh lyserve that keeps every job
	// and verifies a fixed set of members: the timed server's retention
	// (jobs completed within the last job TTL plus one janitor sweep of a
	// second) grows with throughput, so its peak would read a speed-up as
	// a memory regression.
	msrv, _, err := startLyserve(o.lyserve, "1h")
	if err != nil {
		return nil, err
	}
	mem := drive(msrv, client, o, memClients, func(i int64) bool { return i < memMembers })
	out.rssMB, err = peakRSSMB(strconv.Itoa(msrv.cmd.Process.Pid))
	msrv.stop()
	for _, s := range append(timed, mem...) {
		out.check(s.grade())
	}
	return out, err
}

// served is one request: the member and what its stream said. Requests
// are graded after the clock stops, so the oracle's own work (compiling
// the member's plan and planting its bug again) does not compete with
// lyserve for the CPUs inside the measured window.
type served struct {
	ref string
	r   httpResult
	err error
}

func (s served) grade() []string {
	if s.err != nil {
		return []string{s.ref + ": " + s.err.Error()}
	}
	return prefixed(s.ref, corpusErrors(s.ref, s.r.verdicts()))
}

// drive runs closed-loop clients against srv. Each takes the next member
// index while more allows it; drive returns every request.
func drive(srv *lyserve, client *http.Client, o options, clients int, more func(i int64) bool) []served {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var all []served
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; more(i); i = next.Add(1) - 1 {
				ref := member(o.seed, i, o.small)
				r, err := srv.verify(client, requestBody(ref), nil, 0, 0)
				mu.Lock()
				all = append(all, served{ref: ref, r: r, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}

// serveTraced runs one client. Even members are verified untraced; odd
// members are verified over HTTP with the POST and the stream as spans,
// then replayed in process layer by layer — corpus generation, config
// parse and plan compile as probes, then the plan pipeline on one engine
// shared across the run, as lyserve shares its engine — and the replay's
// verdicts and check count must match the stream's.
func serveTraced(o options, srv *lyserve, client *http.Client, out *outcome) error {
	l := newLayers()
	out.lay = l
	eng := engine.New(engine.Options{Backend: l.ph})
	defer eng.Close()
	end := o.deadline()
	for op := 1; op == 1 || time.Now().Before(end); op++ {
		ref := member(o.seed, int64(2*op), o.small)
		u, err := srv.verify(client, requestBody(ref), nil, 0, 0)
		if err != nil {
			return err
		}
		l.add("trace.untraced_ms", u.verdictMs)

		ref = member(o.seed, int64(2*op+1), o.small)
		root := l.tr.begin("op", 0, op)
		r, err := srv.verify(client, requestBody(ref), l.tr, op, root)
		l.tr.end(root)
		if err != nil {
			return err
		}
		l.add("trace.verdict_ms", l.tr.ms(root))
		l.add("lyserve.events", float64(r.events))

		m, err := corpus.Parse(ref)
		if err != nil {
			return err
		}
		l.tr.timed("corpus.build", 0, op, func() { _, _, err = m.Build() })
		if err != nil {
			return err
		}
		dsl, err := m.DSL()
		if err != nil {
			return err
		}
		l.tr.timed("config.parse", 0, op, func() { _, err = config.Parse(dsl) })
		if err != nil {
			return err
		}
		var c *plan.Compiled
		l.tr.timed("plan.compile", 0, op, func() { c, err = plan.Compile(corpusRequest(ref), nil) })
		if err != nil {
			return err
		}
		rr := l.tr.begin("replay", 0, op)
		var problems []netgen.Problem
		l.tr.timed("plan", rr, op, func() { problems = c.Problems(c.Network) })
		v, err := replay(l, eng, problems, c.Tenant(), op, rr)
		l.tr.end(rr)
		if err != nil {
			return err
		}
		errs := append(r.verdicts().diff(v), l.finishOp(op)...)
		errs = append(errs, corpusErrors(ref, v)...)
		l.equivalent(out, prefixed(ref, errs))
	}
	return nil
}
