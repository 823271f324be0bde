package main

import (
	"fmt"
	"math/rand"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/topology"
)

// wan-cold: the paper's §6.1 sweep. The edge-scoped wan-peering plan runs
// cold — a fresh engine per verification — in a closed loop with one
// caller and the engine's default workers. Encode, bit-blast and keying do
// most of the work; the result cache serves the route maps that repeat
// across the scoped edge routers (about half of the checks).

// wanColdParams sizes the WAN: four edge routers, two of them (chosen by
// the seed; the WAN is symmetric, so the choice moves no cost) in scope.
func wanColdParams(small bool) (netgen.WANParams, int) {
	if small {
		return netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 1}, 1
	}
	return netgen.WANParams{Regions: 3, RoutersPerRegion: 2, EdgeRouters: 4, DCsPerRegion: 1, PeersPerEdge: 2}, 2
}

func wanSpec(p netgen.WANParams) *netgen.GeneratorSpec {
	return &netgen.GeneratorSpec{Kind: "wan", Regions: p.Regions, RoutersPerRegion: p.RoutersPerRegion,
		EdgeRouters: p.EdgeRouters, DCsPerRegion: p.DCsPerRegion, PeersPerEdge: p.PeersPerEdge}
}

func wanColdRequest(seed int64, small bool) (plan.Request, map[string]any) {
	p, k := wanColdParams(small)
	rng := rand.New(rand.NewSource(seed))
	var scope []topology.NodeID
	for _, i := range rng.Perm(p.EdgeRouters)[:k] {
		scope = append(scope, netgen.EdgeRouter(i))
	}
	req := plan.Request{
		Network:    plan.Network{Generator: wanSpec(p)},
		Properties: []plan.Property{{Name: "wan-peering", Routers: scope}},
		Options:    plan.Options{WANRegions: p.Regions},
	}
	return req, map[string]any{"wan": p, "scope": scope, "property": "wan-peering"}
}

// setupRepeats is how many times a run repeats a cheap set-up to report
// its median.
const setupRepeats = 101

func runWANCold(o options) (*outcome, error) {
	req, params := wanColdRequest(o.seed, o.small)
	out := &outcome{params: params}
	var c *plan.Compiled
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if c, err = plan.Compile(req, nil); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	// Ground truth: every problem holds, and the engine sees exactly the
	// checks the plan enumerates.
	checks, _, err := enumerate(c.Problems(c.Network), core.Options{})
	if err != nil {
		return nil, err
	}
	want, _, _ := countKeys(checks)
	params["checks"] = want
	if o.trace {
		return out, wanColdTraced(o, req, c, want, out)
	}

	// One untimed warm-up verification lets the heap reach its working
	// size; it is still checked.
	_, _, v, err := wanColdOnce(c)
	out.check(wanColdErrors(v, want, err))
	end := o.deadline()
	for time.Now().Before(end) {
		ms, first, v, err := wanColdOnce(c)
		out.check(wanColdErrors(v, want, err))
		out.verdictMs = append(out.verdictMs, ms)
		out.firstMs = append(out.firstMs, first)
		out.checks += want
		out.busyS += ms / 1e3
	}
	out.rssMB, err = peakRSSMB("self")
	return out, err
}

// wanColdOnce runs one cold plan.Run on a fresh engine, timing it to its
// result and to its first event.
func wanColdOnce(c *plan.Compiled) (verdictMs, firstMs float64, v verdicts, err error) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	first := time.Time{}
	t0 := time.Now()
	res, err := plan.Run(eng, c, plan.RunConfig{Sink: func(plan.Event) {
		if first.IsZero() {
			first = time.Now()
		}
	}})
	verdictMs = sinceMs(t0)
	firstMs = float64(first.Sub(t0).Nanoseconds()) / 1e6
	if err != nil {
		return verdictMs, firstMs, v, err
	}
	return verdictMs, firstMs, fromPlanResult(res, true), nil
}

// wanColdErrors is the wan-cold oracle: every problem holds, nothing is
// unknown, and the engine saw exactly the checks the plan enumerates.
func wanColdErrors(v verdicts, want int, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	if f := v.failing(); len(f) > 0 {
		errs = append(errs, fmt.Sprintf("problems failed on a clean WAN: %v", f))
	}
	if v.unknowns > 0 {
		errs = append(errs, fmt.Sprintf("%d unknown checks", v.unknowns))
	}
	if v.checks != want {
		errs = append(errs, fmt.Sprintf("engine saw %d checks, plan enumerates %d", v.checks, want))
	}
	return errs
}

// wanColdTraced alternates an untraced plan.Run with its layer-by-layer
// replay on the same compiled plan, each on a fresh engine, and compares
// their verdicts and counts.
func wanColdTraced(o options, req plan.Request, c *plan.Compiled, want int, out *outcome) error {
	l := newLayers()
	out.lay = l
	end := o.deadline()
	for op := 1; op == 1 || time.Now().Before(end); op++ {
		u, _, uv, err := wanColdOnce(c)
		if err != nil {
			return err
		}
		l.add("trace.untraced_ms", u)

		l.tr.timed("plan.compile", 0, op, func() { _, err = plan.Compile(req, nil) })
		if err != nil {
			return err
		}
		eng := engine.New(engine.Options{Backend: l.ph})
		root := l.tr.begin("op", 0, op)
		var problems []netgen.Problem
		l.tr.timed("plan", root, op, func() { problems = c.Problems(c.Network) })
		v, err := replay(l, eng, problems, c.Tenant(), op, root)
		l.tr.end(root)
		eng.Close()
		if err != nil {
			return err
		}
		l.add("trace.verdict_ms", l.tr.ms(root))
		errs := append(uv.diff(v), l.finishOp(op)...)
		l.equivalent(out, append(errs, wanColdErrors(v, want, nil)...))
	}
	return nil
}
