package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/plan"
	"lightyear/internal/topology"
)

// lyserveBin is built once by TestMain for the serve-corpus smoke test.
var lyserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	lyserveBin = filepath.Join(dir, "lyserve")
	build := exec.Command("go", "build", "-o", lyserveBin, "lightyear/cmd/lyserve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		lyserveBin = ""
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestWorkloadsSmall runs every workload on small inputs, untraced and
// traced, and checks that every verdict held and every metric was
// reported.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				if w.name == "serve-corpus" && lyserveBin == "" {
					t.Fatal("lyserve did not build")
				}
				o := options{workload: w.name, seed: 3, seconds: 0.3, trace: traced, small: true, lyserve: lyserveBin}
				out, err := w.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
				}
				d := document(o, out)
				if traced {
					if len(d.Metrics) != len(perLayer) {
						t.Fatalf("%d per-layer metrics, want %d", len(d.Metrics), len(perLayer))
					}
					for _, m := range []string{"core.checks", "engine.solved", "encode.us_per_ob", "trace.verdict_ms"} {
						if d.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, d.Metrics[m].Value)
						}
					}
					return
				}
				for _, m := range []string{"setup_s", "verdict_p50_ms", "verdict_tail_ms", "first_event_p50_ms", "checks_per_s", "peak_rss_mb"} {
					v := d.Metrics[m].Value
					if !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s = %v, want a positive number", m, v)
					}
				}
			})
		}
	}
}

// TestReplayEquivalence checks that the layer-by-layer replay reaches the
// same verdicts, check count and distinct-key count as plan.Run, on a small
// WAN (all clean) and on a corpus member with a planted bug.
func TestReplayEquivalence(t *testing.T) {
	wanReq, _ := wanColdRequest(1, true)
	planted := "ring:7:size=4,bug=" + corpus.BugNames()[0]
	for name, req := range map[string]plan.Request{"wan": wanReq, "planted": corpusRequest(planted)} {
		t.Run(name, func(t *testing.T) {
			c, err := plan.Compile(req, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng := engine.New(engine.Options{})
			res, err := plan.Run(eng, c, plan.RunConfig{})
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := fromPlanResult(res, true)

			l := newLayers()
			reng := engine.New(engine.Options{Backend: l.ph})
			defer reng.Close()
			root := l.tr.begin("op", 0, 1)
			got, err := replay(l, reng, c.Problems(c.Network), c.Tenant(), 1, root)
			l.tr.end(root)
			if err != nil {
				t.Fatal(err)
			}
			if m := l.finishOp(1); len(m) > 0 {
				t.Fatalf("solver backend differs from replay: %v", m)
			}
			if errs := want.diff(got); len(errs) > 0 {
				t.Fatalf("replay differs from plan.Run: %v", errs)
			}
			failing := len(got.failing()) > 0
			if failing != (name == "planted") {
				t.Fatalf("failing problems %v", got.failing())
			}
			if name == "planted" {
				if errs := corpusErrors(planted, got); len(errs) > 0 {
					t.Fatalf("oracle: %v", errs)
				}
				if w := durationsMs(l.tr.snapshot(), "witness"); len(w) == 0 {
					t.Fatal("a planted failure produced no witness span")
				}
			}
		})
	}
}

func TestQuantiles(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if m := median(xs); m.Value != 50.5 || m.Samples != 100 {
		t.Fatalf("median = %+v", m)
	}
	// 100 samples: the 11th largest (90) has exactly 10 samples beyond it.
	if q := tail(xs); q.Value != 90 || q.Percentile != 90 || q.Beyond != tailBeyond {
		t.Fatalf("tail = %+v", q)
	}
	if q := tail(xs[:5]); q.Value != 100 || q.Beyond != 0 {
		t.Fatalf("tail of 5 samples = %+v", q)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "engine", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "solve", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "solve", Start: 40, End: 60}, // overlaps the first solve
		{ID: 5, Name: "core", Start: 100, End: 120},           // a probe: not under an op
	}
	// [0,10) op, [10,20) engine, [20,40) first solve, [40,50) both solves
	// (split), [50,60) second solve, [60,90) engine, [90,100) op.
	self := selfTimes(spans, "op")
	want := map[string]float64{"op": 20e-6, "engine": 40e-6, "solve": 40e-6}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	if _, ok := self["core"]; ok {
		t.Error("probe span counted as pipeline self time")
	}
}

// TestTrailVerifies checks the edit trail's premise: every edit is benign,
// so every state still verifies cold.
func TestTrailVerifies(t *testing.T) {
	c, _, err := wanDeltaPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrail(5, c.Network)
	if len(tr.routers) == 0 {
		t.Fatal("no router with external sessions")
	}
	for i := 0; i < 4; i++ {
		n, label, err := tr.next()
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{})
		res, err := plan.Run(eng, compiledOn(c, n), plan.RunConfig{})
		eng.Close()
		if err != nil || !res.OK {
			t.Fatalf("%s: ok=%v err=%v", label, res != nil && res.OK, err)
		}
	}
}

// TestWANDeltaUpdateError checks that an Update error ends the untraced
// loop as one failed operation, instead of the loop waiting for Update
// time that never accrues.
func TestWANDeltaUpdateError(t *testing.T) {
	c, _, err := wanDeltaPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(*topology.Network) (*delta.Result, error) { return nil, errors.New("update refused") }
	out := &outcome{}
	o := options{workload: "wan-delta", seed: 1, seconds: 0.3, small: true}
	if err := wanDeltaSteps(o, c, refuse, nil, core.Options{}, out); err != nil {
		t.Fatal(err)
	}
	if out.attempted != 1 || out.failed != 1 || len(out.verdictMs) != 0 {
		t.Fatalf("attempted %d, failed %d, %d samples; want one failed operation and no samples",
			out.attempted, out.failed, len(out.verdictMs))
	}
}
