package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/topology"
)

// wan-delta: the paper's incremental claim. A WAN baseline is pinned in a
// delta session, then a seeded trail of small edits is verified one by one
// with Verifier.Update in a closed loop. Enumeration, keying and the delta
// split do nearly all the work and the encoder nearly none, so this is the
// control on which an encoder change should not move; it is also the
// hit-heavy use of retained results beside wan-cold's miss-heavy cache.

const (
	// deltaBaselines is how many cold baselines set-up pins (each on a
	// fresh engine) to report their median.
	deltaBaselines = 5
	// coldEvery samples the steps whose Update is compared with a cold
	// plan.Run of the same state.
	coldEvery = 10
	// stepWallFactor bounds the untraced loop's wall-clock time, in
	// multiples of the Update time it measures.
	stepWallFactor = 4
)

func wanDeltaParams(small bool) netgen.WANParams {
	if small {
		return netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 1}
	}
	return netgen.DefaultWANParams()
}

// trail is the seeded edit sequence. Its edits alternate a netgen mutation
// (tighten-imports at a router with external sessions) and one
// corpus.Fuzz step (a TEST-NET-2 deny clause on an import or export map).
// Every edit only filters a block no property mentions, so every state
// must verify. Each state is the baseline plus one edit, so consecutive
// states differ by at most two edits (the last one undone, the next one
// made): additive edits that accumulated would lengthen route maps and
// make later steps cost more, tying a run's figures to how many steps it
// reached.
type trail struct {
	rng     *rand.Rand
	base    *topology.Network
	cur     *topology.Network
	routers []topology.NodeID
	n       int
}

func newTrail(seed int64, n *topology.Network) *trail {
	t := &trail{rng: rand.New(rand.NewSource(seed)), base: n, cur: n}
	for _, r := range n.Routers() {
		for _, e := range n.Edges() {
			if e.To == r && n.IsExternal(e.From) {
				t.routers = append(t.routers, r)
				break
			}
		}
	}
	return t
}

// next returns the next state. An edit that would reproduce the current
// state (the same edit drawn twice in a row) is redrawn.
func (t *trail) next() (*topology.Network, string, error) {
	for {
		next, label, err := t.edit()
		if err != nil {
			return nil, "", err
		}
		if next.Fingerprint() != t.cur.Fingerprint() {
			t.cur = next
			return next, label, nil
		}
	}
}

func (t *trail) edit() (*topology.Network, string, error) {
	t.n++
	if t.n%2 == 1 {
		m := netgen.MutationSpec{Kind: netgen.MutTighten, At: t.routers[t.rng.Intn(len(t.routers))]}
		next, err := netgen.ApplyMutation(t.base, m)
		return next, m.String(), err
	}
	fr, err := corpus.Fuzz(t.base, t.rng.Int63(), 1)
	if err != nil {
		return nil, "", err
	}
	return fr.Network, fr.Trail[0].String(), nil
}

func wanDeltaPlan(small bool) (*plan.Compiled, map[string]any, error) {
	p := wanDeltaParams(small)
	c, err := plan.Compile(plan.Request{
		Network:    plan.Network{Generator: wanSpec(p)},
		Properties: []plan.Property{{Name: "wan-peering"}},
		Options:    plan.Options{WANRegions: p.Regions},
	}, nil)
	return c, map[string]any{"wan": p, "property": "wan-peering", "cold_check_every": coldEvery}, err
}

// session pins the plan's network in a fresh delta session.
func session(c *plan.Compiled, opts engine.Options) (*engine.Engine, *delta.Verifier, *delta.Result, error) {
	eng := engine.New(opts)
	v := delta.NewVerifierFor(eng, c)
	v.SetWorkload(c.Workload())
	base, err := v.Baseline(c.Network)
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	if !base.OK || base.Unknown > 0 {
		eng.Close()
		return nil, nil, nil, fmt.Errorf("baseline does not verify: %s", base)
	}
	return eng, v, base, nil
}

func runWANDelta(o options) (*outcome, error) {
	c, params, err := wanDeltaPlan(o.small)
	if err != nil {
		return nil, err
	}
	out := &outcome{params: params}
	var eng *engine.Engine
	var v *delta.Verifier
	for i := 0; i < deltaBaselines; i++ {
		if eng != nil {
			eng.Close()
		}
		t0 := time.Now()
		var base *delta.Result
		if eng, v, base, err = session(c, engine.Options{}); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		params["baseline_checks"] = base.TotalChecks
	}
	defer eng.Close()
	opts := eng.CheckOptions()
	checks, _, err := enumerate(c.Problems(c.Network), opts)
	if err != nil {
		return nil, err
	}
	_, _, prevKeys := countKeys(checks)
	if o.trace {
		return out, wanDeltaTraced(o, c, v, prevKeys, out)
	}
	return out, wanDeltaSteps(o, c, v.Update, prevKeys, opts, out)
}

// wanDeltaSteps is the untraced closed loop over the trail. It measures
// o.seconds of Update time, since the oracle between steps re-enumerates
// every state and would otherwise halve the samples; a wall-clock limit of
// stepWallFactor times that bounds it too. The first Update error ends it:
// the session then keeps its previous state, which the trail has moved
// past. Peak memory is taken over the steps only: set-up's baselines are
// freed before they start, and the sampled steps' cold plan.Run
// comparisons are made after the loop, on states rebuilt by replaying the
// trail, so the loop keeps no more than each sampled step's verdicts.
func wanDeltaSteps(o options, c *plan.Compiled, update func(*topology.Network) (*delta.Result, error),
	prevKeys map[string]struct{}, opts core.Options, out *outcome) error {
	type sampled struct {
		step int
		v    verdicts
		errs []string
	}
	var cold []sampled
	if err := resetPeakRSS(); err != nil {
		return err
	}
	tr := newTrail(o.seed, c.Network)
	hard := time.Now().Add(time.Duration(stepWallFactor * o.seconds * float64(time.Second)))
	for step := 0; step == 0 || (out.busyS < o.seconds && time.Now().Before(hard)); step++ {
		prev := tr.cur
		next, label, err := tr.next()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := update(next)
		ms := sinceMs(t0)
		if err != nil {
			out.check([]string{label + ": " + err.Error()})
			break
		}
		out.verdictMs = append(out.verdictMs, ms)
		out.checks += res.TotalChecks
		out.busyS += ms / 1e3

		checks, _, err := enumerate(c.Problems(next), opts)
		if err != nil {
			return err
		}
		var errs []string
		errs, prevKeys = deltaOracle(prev, next, prevKeys, checks, res)
		if step%coldEvery == 0 {
			cold = append(cold, sampled{step, updateVerdicts(res), prefixed(label, errs)})
		} else {
			out.check(prefixed(label, errs))
		}
		// The oracle allocates as much as an Update; collect its garbage
		// so the next Update is not billed for it.
		runtime.GC()
	}
	var err error
	out.rssMB, err = peakRSSMB("self")
	replay := newTrail(o.seed, c.Network)
	for step, i := 0, 0; i < len(cold); step++ {
		state, label, terr := replay.next()
		if terr != nil {
			return terr
		}
		if step == cold[i].step {
			out.check(append(cold[i].errs, prefixed(label, coldAgrees(c, state, cold[i].v))...))
			i++
		}
	}
	return err
}

// resetPeakRSS returns the heap's free pages to the system and resets the
// process's peak resident set (VmHWM) to its current size.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// deltaOracle checks one Update against the edit it verified, given the
// checks of the new state: every state of the trail verifies; the dirty
// subset is exactly the checks whose key the previous state lacked; and
// delta.DirtyConsistent holds — every dirty check sits where the
// structural diff touched. It returns the new state's key set.
func deltaOracle(prev, next *topology.Network, prevKeys map[string]struct{},
	checks [][]core.Check, res *delta.Result) ([]string, map[string]struct{}) {
	var errs []string
	total, _, keys := countKeys(checks)
	var dirty []core.Check
	for _, cs := range checks {
		for _, ch := range cs {
			if _, ok := prevKeys[ch.Key()]; !ok || ch.Key() == "" {
				dirty = append(dirty, ch)
			}
		}
	}
	if !res.OK || res.Failures > 0 || res.Unknown > 0 {
		errs = append(errs, fmt.Sprintf("a benign edit failed verification: %s", res))
	}
	if res.TotalChecks != total {
		errs = append(errs, fmt.Sprintf("update covered %d checks, the state has %d", res.TotalChecks, total))
	}
	if res.DirtyChecks != len(dirty) {
		errs = append(errs, fmt.Sprintf("update re-solved %d dirty checks, key split says %d", res.DirtyChecks, len(dirty)))
	}
	if err := delta.DirtyConsistent(topology.DiffNetworks(prev, next), dirty); err != nil {
		errs = append(errs, err.Error())
	}
	return errs, keys
}

// updateVerdicts reduces a delta result for comparison with a cold run.
func updateVerdicts(res *delta.Result) verdicts {
	v := verdicts{checks: res.TotalChecks, problems: make(map[string]bool), unknowns: res.Unknown}
	for _, p := range res.Problems {
		v.problems[p.Name] = p.OK
	}
	return v
}

// coldAgrees verifies the state cold with plan.Run on a fresh engine and
// compares it with the incremental result.
func coldAgrees(c *plan.Compiled, n *topology.Network, v verdicts) []string {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	cold, err := plan.Run(eng, compiledOn(c, n), plan.RunConfig{})
	if err != nil {
		return []string{"cold run: " + err.Error()}
	}
	return prefixed("update vs cold plan.Run", v.diff(fromPlanResult(cold, true)))
}

// wanDeltaTraced runs the trail through two sessions pinned on the same
// baseline: an untraced one, and a traced one whose engine decides
// obligations through the phased backend, with the diff and the
// enumeration the Update performs timed as probes beside it. Both
// sessions' results must agree step by step.
func wanDeltaTraced(o options, c *plan.Compiled, v0 *delta.Verifier, prevKeys map[string]struct{}, out *outcome) error {
	l := newLayers()
	out.lay = l
	eng, v1, _, err := session(c, engine.Options{Backend: l.ph})
	if err != nil {
		return err
	}
	defer eng.Close()
	opts := eng.CheckOptions()
	tr := newTrail(o.seed, c.Network)
	end := o.deadline()
	for op := 1; op == 1 || time.Now().Before(end); op++ {
		prev := tr.cur
		next, label, err := tr.next()
		if err != nil {
			return err
		}
		t0 := time.Now()
		r0, err := v0.Update(next)
		if err != nil {
			return err
		}
		l.add("trace.untraced_ms", sinceMs(t0))

		before := eng.Stats()
		root := l.tr.begin("op", 0, op)
		ds := l.tr.begin("delta", root, op)
		l.ph.scope(op, ds)
		r1, err := v1.Update(next)
		l.tr.end(ds)
		l.tr.end(root)
		if err != nil {
			return err
		}
		after := eng.Stats()
		l.add("trace.verdict_ms", l.tr.ms(root))
		l.add("delta.update_ms", l.tr.ms(ds))
		l.add("delta.dirty", float64(r1.DirtyChecks))
		l.add("delta.total", float64(r1.TotalChecks))
		l.add("delta.reused", float64(r1.ReusedResults))
		l.add("engine.solved", float64(after.ChecksSolved-before.ChecksSolved))
		l.add("engine.hits", float64(after.CacheHits-before.CacheHits))
		l.add("engine.dedup", float64(after.DedupHits-before.DedupHits))
		l.add("engine.submitted", float64(after.ChecksSubmitted-before.ChecksSubmitted))
		errs := l.finishOp(op)

		l.tr.timed("delta.diff", 0, op, func() { topology.DiffNetworks(prev, next) })
		checks, _, err := l.enumerate(c.Problems(next), opts, op, 0)
		if err != nil {
			return err
		}
		_, distinct, _ := countKeys(checks)
		l.add("core.distinct", float64(distinct))

		var oerrs []string
		oerrs, prevKeys = deltaOracle(prev, next, prevKeys, checks, r1)
		errs = append(errs, oerrs...)
		if r0.TotalChecks != r1.TotalChecks || r0.DirtyChecks != r1.DirtyChecks ||
			r0.ReusedResults != r1.ReusedResults || r0.OK != r1.OK || r0.Unknown != r1.Unknown {
			errs = append(errs, fmt.Sprintf("untraced %s, traced %s", r0, r1))
		}
		errs = append(errs, updateVerdicts(r0).diff(updateVerdicts(r1))...)
		l.equivalent(out, prefixed(label, errs))
	}
	return nil
}
