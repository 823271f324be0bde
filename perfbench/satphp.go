package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/topology"
)

// sat-pigeonhole: the only workload where SAT search and the solver
// backends do most of the work. Each verification is one
// netgen.StressProblemAt problem — a trivially valid safety problem whose
// final implication check refutes a pigeonhole formula PHP(h+1, h) — on a
// fresh engine, so its result cache cannot answer it. The sizes repeat in
// fixed proportions (the seed picks their order and the anchor router), so
// the median lands on PHP(7,6) and the tail on PHP(8,7).

func phpSizes(small bool) []int {
	if small {
		return []int{3, 4}
	}
	return []int{5, 6, 6, 7}
}

type phpProblem struct {
	holes  int
	name   string
	safety *core.SafetyProblem
}

// satSetup generates the network and compiles the plan — the WAN with a
// sat-stress property anchored at the seed's router — then builds one
// stress problem per size at that anchor.
func satSetup(anchor topology.NodeID, sizes []int) (plan.Request, map[int]phpProblem, error) {
	req := plan.Request{
		Network:    plan.Network{Generator: &netgen.GeneratorSpec{Kind: "wan"}},
		Properties: []plan.Property{{Name: "sat-stress", Routers: []topology.NodeID{anchor}}},
	}
	c, err := plan.Compile(req, nil)
	if err != nil {
		return req, nil, err
	}
	probs := make(map[int]phpProblem)
	for _, h := range sizes {
		probs[h] = phpProblem{h, fmt.Sprintf("pigeonhole-%d", h), netgen.StressProblemAt(c.Network, anchor, h)}
	}
	return req, probs, nil
}

func runSATPigeonhole(o options) (*outcome, error) {
	sizes := phpSizes(o.small)
	rng := rand.New(rand.NewSource(o.seed))
	routers := netgen.WAN(netgen.DefaultWANParams(), netgen.WANBugs{}).Routers()
	anchor := routers[rng.Intn(len(routers))]
	out := &outcome{params: map[string]any{"wan": netgen.DefaultWANParams(), "anchor": anchor, "holes": sizes}}
	var req plan.Request
	var probs map[int]phpProblem
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if req, probs, err = satSetup(anchor, sizes); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	want := make(map[int]int)
	for h, p := range probs {
		want[h] = len(p.safety.Checks(core.Options{}))
	}
	order := func() []int {
		s := append([]int(nil), sizes...)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	if o.trace {
		return out, satTraced(o, req, probs, want, order, out)
	}
	end := o.deadline()
	for cycle := 0; cycle == 0 || time.Now().Before(end); cycle++ {
		for _, h := range order() {
			ms, first, v, conflicts, err := satOnce(probs[h])
			out.check(satErrors(v, want[h], conflicts, err))
			out.verdictMs = append(out.verdictMs, ms)
			out.firstMs = append(out.firstMs, first)
			out.checks += v.checks
			out.busyS += ms / 1e3
		}
	}
	var err error
	out.rssMB, err = peakRSSMB("self")
	return out, err
}

// satOnce verifies one stress problem on a fresh engine, timing it to its
// report and to its first progress event.
func satOnce(p phpProblem) (ms, firstMs float64, v verdicts, conflicts int64, err error) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	t0 := time.Now()
	job, err := eng.Submit(context.Background(), engine.Workload{Safety: p.safety})
	if err != nil {
		return sinceMs(t0), 0, v, 0, err
	}
	<-job.Progress()
	firstMs = sinceMs(t0)
	rep := job.Wait()
	ms = sinceMs(t0)
	st := job.Stats()
	v = verdicts{checks: st.Checks, distinct: int(eng.Stats().ChecksSolved),
		problems: map[string]bool{p.name: rep.OK()}, unknowns: len(rep.Unknowns())}
	return ms, firstMs, v, st.Solver.Conflicts, nil
}

// satErrors is the sat-pigeonhole oracle: every check holds, none is
// unknown, and the pigeonhole refutation needed real search.
func satErrors(v verdicts, want int, conflicts int64, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	if f := v.failing(); len(f) > 0 {
		errs = append(errs, fmt.Sprintf("unsatisfiable pigeonhole reported failing: %v", f))
	}
	if v.unknowns > 0 {
		errs = append(errs, fmt.Sprintf("%d unknown checks", v.unknowns))
	}
	if conflicts <= 0 {
		errs = append(errs, "pigeonhole refuted without a conflict")
	}
	if v.checks != want {
		errs = append(errs, fmt.Sprintf("engine saw %d checks, problem has %d", v.checks, want))
	}
	return errs
}

// satTraced alternates an untraced verification with its layer-by-layer
// replay on a fresh engine deciding obligations through the phased
// backend.
func satTraced(o options, req plan.Request, probs map[int]phpProblem, want map[int]int, order func() []int, out *outcome) error {
	l := newLayers()
	out.lay = l
	end := o.deadline()
	op := 0
	for cycle := 0; cycle == 0 || time.Now().Before(end); cycle++ {
		for _, h := range order() {
			op++
			p := probs[h]
			u, _, uv, conflicts, err := satOnce(p)
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
			v, err := replay(l, eng, []netgen.Problem{{Name: p.name, Safety: p.safety}}, "", op, root)
			l.tr.end(root)
			eng.Close()
			if err != nil {
				return err
			}
			l.add("trace.verdict_ms", l.tr.ms(root))
			errs := append(uv.diff(v), l.finishOp(op)...)
			l.equivalent(out, append(errs, satErrors(v, want[h], conflicts, nil)...))
		}
	}
	return nil
}
