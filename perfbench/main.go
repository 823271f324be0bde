// Command perfbench is the repository benchmark: it runs one named workload
// from a seed for a fixed time, checks every verdict against ground truth,
// and prints its metrics by name and unit. BENCHMARK.json at the repository
// root lists the workloads and metrics; perfbench/design.json records why
// each workload exists and which end-to-end metric each layer should move.
//
// Run it through perfbench/run.py, which builds this binary and cmd/lyserve:
//
//	python3 perfbench/run.py --workload wan-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last output line carries the end-to-end metrics, with
// --trace 1 the per-layer metrics of a separate traced run. Each run also
// writes a result document (raw samples, quantiles with their sample
// counts, provenance) under --results, and a traced run its spans.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool // small inputs, for the benchmark's own tests
	lyserve  string
	results  string
	commit   string
	digest   string
}

// deadline returns when a run that starts measuring now must stop.
func (o options) deadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back: its end-to-end samples (from
// an untraced run) or its layer samples (from a traced run), plus the
// operation accounting and workload parameters.
type outcome struct {
	params    map[string]any
	attempted int
	failed    int
	failures  []string

	// End-to-end samples.
	setupS    []float64
	verdictMs []float64
	firstMs   []float64
	checks    int     // local checks covered by verdicts, reuse included
	busyS     float64 // wall-clock seconds spent verifying
	rssMB     float64

	// Traced runs.
	lay *layers
}

// check records one attempted operation and whether its verdicts held;
// the first failures' messages are kept for the result document.
func (o *outcome) check(errs []string) {
	o.attempted++
	if len(errs) == 0 {
		return
	}
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, strings.Join(errs, "; "))
	}
}

type workload struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloads = []workload{
	{"wan-cold", runWANCold},
	{"wan-delta", runWANDelta},
	{"serve-corpus", runServeCorpus},
	{"sat-pigeonhole", runSATPigeonhole},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: wan-cold, wan-delta, serve-corpus, sat-pigeonhole")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.lyserve, "lyserve", "", "path to the lyserve binary (serve-corpus)")
	flag.StringVar(&o.results, "results", ".bench_build/results", "directory result documents are written to")
	flag.StringVar(&o.commit, "commit", "", "commit the program was built from")
	flag.StringVar(&o.digest, "source-digest", "", "digest of the program's source files")
	flag.Parse()
	o.trace = trace == 1
	w, ok := lookup(o.workload)
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", names())
		os.Exit(2)
	}
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	doc := document(o, out)
	if err := writeDoc(o, doc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	bw := bufio.NewWriter(os.Stdout)
	for _, name := range sortedNames(doc.Metrics) {
		m := doc.Metrics[name]
		fmt.Fprintf(bw, "%-28s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, f := range doc.Failures {
		fmt.Fprintf(bw, "FAIL %s\n", f)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   doc.Failed == 0,
		"attempted": doc.Attempted,
		"failed":    doc.Failed,
		"metrics":   doc.Metrics,
	})
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		os.Exit(1)
	}
	if doc.Failed > 0 {
		os.Exit(1)
	}
}

func names() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// provenance identifies what was measured, on what.
type provenance struct {
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu_model"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Time         string `json:"time"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultDoc is the per-run result document.
type resultDoc struct {
	Workload      string               `json:"workload"`
	Seed          int64                `json:"seed"`
	Trace         bool                 `json:"trace"`
	Seconds       float64              `json:"seconds"`
	Params        map[string]any       `json:"params"`
	Provenance    provenance           `json:"provenance"`
	Attempted     int                  `json:"attempted"`
	Failed        int                  `json:"failed"`
	FailRatio     float64              `json:"fail_ratio"`
	Failures      []string             `json:"failures,omitempty"`
	Metrics       map[string]metric    `json:"metrics"`
	Quantiles     map[string]quantile  `json:"quantiles,omitempty"`
	Samples       map[string][]float64 `json:"samples,omitempty"`
	NotApplicable []string             `json:"not_applicable,omitempty"`
	spans         []span
}

func document(o options, out *outcome) *resultDoc {
	d := &resultDoc{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Params: out.params,
		Provenance: provenance{
			GoVersion: runtime.Version(), CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: runtime.NumCPU(), Commit: orUnknown(o.commit), SourceDigest: orUnknown(o.digest),
			Time: time.Now().UTC().Format(time.RFC3339),
		},
		Attempted: out.attempted, Failed: out.failed, Failures: out.failures,
	}
	if d.Attempted > 0 {
		d.FailRatio = float64(d.Failed) / float64(d.Attempted)
	}
	if o.trace {
		d.Metrics, d.NotApplicable = out.lay.metrics()
		d.Samples = out.lay.samples
		d.spans = out.lay.tr.snapshot()
		return d
	}
	p50, tl, first := median(out.verdictMs), tail(out.verdictMs), median(out.firstMs)
	if len(out.firstMs) == 0 {
		// The verification answers once (wan-delta's Update), so it has no
		// first event apart from its verdict. The result line still carries
		// the metric, as it must carry every end-to-end metric; the document
		// marks it not applicable, and compare skips it.
		first = p50
		d.NotApplicable = []string{"first_event_p50_ms"}
	}
	d.Quantiles = map[string]quantile{
		"verdict_p50_ms": p50, "verdict_tail_ms": tl, "first_event_p50_ms": first,
		"setup_s": median(out.setupS),
	}
	d.Samples = map[string][]float64{"verdict_ms": out.verdictMs, "first_event_ms": out.firstMs, "setup_s": out.setupS}
	d.Metrics = map[string]metric{
		"setup_s":            {median(out.setupS).Value, "s"},
		"verdict_p50_ms":     {p50.Value, "ms"},
		"verdict_tail_ms":    {tl.Value, "ms"},
		"first_event_p50_ms": {first.Value, "ms"},
		"checks_per_s":       {float64(out.checks) / out.busyS, "1/s"},
		"peak_rss_mb":        {out.rssMB, "MB"},
	}
	return d
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// writeDoc writes the result document and, for a traced run, its spans.
func writeDoc(o options, d *resultDoc) error {
	if o.results == "" {
		return nil
	}
	dir := filepath.Join(o.results, o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("seed-%d-trace-%t", o.seed, o.trace))
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	// Spans are written one per line: a traced wan-cold run records
	// hundreds of thousands.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range d.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".spans.ndjson", buf.Bytes(), 0o644)
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// sinceMs is the milliseconds elapsed since t.
func sinceMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
