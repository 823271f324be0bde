package main

import (
	"math"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
)

// layers collects a traced run: the spans, the phased solver backend the
// run's engines use, named per-verification samples, and the sequential
// obligation probes.
type layers struct {
	tr      *tracer
	ph      *phased
	ops     int
	samples map[string][]float64
	obs     []solvedOb
	probe   obProbe
}

func newLayers() *layers {
	tr := newTracer()
	return &layers{tr: tr, ph: &phased{tr: tr}, samples: make(map[string][]float64)}
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// finishOp closes a traced verification: it collects the obligations the
// phased backend solved for it and probes a sample of them, returning the
// obligations on which solver.New's backend disagreed with the replay.
func (l *layers) finishOp(op int) []string {
	solved := l.ph.scope(0, 0)
	l.obs = append(l.obs, solved...)
	l.ops++
	return probeObligations(l.tr, op, solved, &l.probe)
}

// enumerate generates the problems' checks inside a "core" span, counting
// the checks, the time and the heap allocations. The engine is idle
// meanwhile, so the allocations are the enumeration's.
func (l *layers) enumerate(problems []netgen.Problem, opts core.Options, op, parent int) ([][]core.Check, []core.Property, error) {
	var checks [][]core.Check
	var props []core.Property
	var err error
	m0 := mallocs()
	d := l.tr.timed("core", parent, op, func() { checks, props, err = enumerate(problems, opts) })
	m1 := mallocs()
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for _, cs := range checks {
		n += len(cs)
	}
	l.add("core.checks", float64(n))
	l.add("core.enum_us", float64(d.Nanoseconds())/1e3)
	l.add("core.allocs", float64(m1-m0))
	return checks, props, nil
}

// equivalent records one traced verification: the differences between the
// replay and the untraced program call on the same input, if any, fail it.
func (l *layers) equivalent(o *outcome, errs []string) {
	for i := range errs {
		errs[i] = "replay differs from untraced run: " + errs[i]
	}
	o.check(errs)
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order.
var perLayer = []struct{ name, unit string }{
	{"plan.compile_ms", "ms"},
	{"corpus.build_ms", "ms"},
	{"config.parse_ms", "ms"},
	{"core.checks", "count"},
	{"core.checks_us_per_check", "us"},
	{"core.allocs_per_check", "count"},
	{"core.unique_ratio", "ratio"},
	{"engine.submit_ms", "ms"},
	{"engine.wait_ms", "ms"},
	{"engine.solved", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.dedup_hits", "count"},
	{"delta.diff_ms", "ms"},
	{"delta.update_ms", "ms"},
	{"delta.dirty_ratio", "ratio"},
	{"delta.reused", "count"},
	{"encode.us_per_ob", "us"},
	{"encode.allocs_per_ob", "count"},
	{"encode.terms_per_ob", "count"},
	{"blast.us_per_ob", "us"},
	{"blast.vars_per_ob", "count"},
	{"blast.clauses_per_ob", "count"},
	{"sat.us_per_ob", "us"},
	{"sat.conflicts_per_ob", "count"},
	{"solver.solve_us_per_ob", "us"},
	{"solver.unknowns", "count"},
	{"report.encode_ms", "ms"},
	{"report.witness_us", "us"},
	{"lyserve.post_ms", "ms"},
	{"lyserve.stream_ms", "ms"},
	{"lyserve.events", "count"},
	{"self.plan_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.solve_ms", "ms"},
	{"self.encode_ms", "ms"},
	{"self.blast_ms", "ms"},
	{"self.sat_ms", "ms"},
	{"self.witness_ms", "ms"},
	{"self.report_ms", "ms"},
	{"self.delta_ms", "ms"},
	{"self.lyserve_ms", "ms"},
	{"self.unattributed_ms", "ms"},
	{"trace.verdict_ms", "ms"},
	{"trace.untraced_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// metrics computes every per-layer metric. A metric whose layer the
// workload does not cross reads 0 and is listed as not applicable.
func (l *layers) metrics() (map[string]metric, []string) {
	s := l.samples
	spans := l.tr.snapshot()
	v := make(map[string]float64)
	put := func(name string) func(float64, bool) {
		return func(x float64, ok bool) {
			if ok && !math.IsNaN(x) && !math.IsInf(x, 0) {
				v[name] = x
			}
		}
	}
	has := func(names ...string) bool {
		for _, n := range names {
			if len(s[n]) == 0 {
				return false
			}
		}
		return true
	}
	ratio := func(a, b string) (float64, bool) { return sum(s[a]) / sum(s[b]), has(a, b) && sum(s[b]) > 0 }
	spanMed := func(name string) (float64, bool) {
		d := durationsMs(spans, name)
		return median(d).Value, len(d) > 0
	}
	spanMeanUs := func(name string) (float64, bool) {
		d := durationsMs(spans, name)
		return mean(d) * 1e3, len(d) > 0
	}
	meanOf := func(name string) (float64, bool) { return mean(s[name]), has(name) }

	put("plan.compile_ms")(spanMed("plan.compile"))
	put("corpus.build_ms")(spanMed("corpus.build"))
	put("config.parse_ms")(spanMed("config.parse"))
	put("core.checks")(meanOf("core.checks"))
	put("core.checks_us_per_check")(ratio("core.enum_us", "core.checks"))
	put("core.allocs_per_check")(ratio("core.allocs", "core.checks"))
	put("core.unique_ratio")(ratio("core.distinct", "core.checks"))
	put("engine.submit_ms")(meanOf("engine.submit_ms"))
	put("engine.wait_ms")(meanOf("engine.wait_ms"))
	put("engine.solved")(meanOf("engine.solved"))
	put("engine.hit_ratio")(ratio("engine.hits", "engine.submitted"))
	put("engine.dedup_hits")(meanOf("engine.dedup"))
	d := durationsMs(spans, "delta.diff")
	put("delta.diff_ms")(mean(d), len(d) > 0)
	put("delta.update_ms")(meanOf("delta.update_ms"))
	put("delta.dirty_ratio")(ratio("delta.dirty", "delta.total"))
	put("delta.reused")(meanOf("delta.reused"))
	put("encode.us_per_ob")(spanMeanUs("encode"))
	put("blast.us_per_ob")(spanMeanUs("blast"))
	put("sat.us_per_ob")(spanMeanUs("sat"))
	put("report.witness_us")(spanMeanUs("witness"))
	var terms, vars, clauses, conflicts []float64
	for _, ob := range l.obs {
		if ob.ob.Concrete() {
			continue
		}
		terms = append(terms, float64(ob.terms))
		vars = append(vars, float64(ob.vars))
		clauses = append(clauses, float64(ob.clauses))
		conflicts = append(conflicts, float64(ob.conflicts))
	}
	put("encode.terms_per_ob")(mean(terms), len(terms) > 0)
	put("blast.vars_per_ob")(mean(vars), len(vars) > 0)
	put("blast.clauses_per_ob")(mean(clauses), len(clauses) > 0)
	put("sat.conflicts_per_ob")(mean(conflicts), len(conflicts) > 0)
	put("encode.allocs_per_ob")(mean(l.probe.encodeAllocs), len(l.probe.encodeAllocs) > 0)
	put("solver.solve_us_per_ob")(mean(l.probe.solverUs), len(l.probe.solverUs) > 0)
	put("solver.unknowns")(float64(l.probe.unknowns), len(l.probe.solverUs) > 0)
	put("report.encode_ms")(meanOf("report.encode_ms"))
	put("lyserve.post_ms")(spanMed("lyserve.post"))
	put("lyserve.stream_ms")(spanMed("lyserve.stream"))
	put("lyserve.events")(meanOf("lyserve.events"))

	// Self times per verification, over the pipeline spans of every
	// verification ("op") and, where the program ran out of process, of
	// its in-process replay ("replay"); they sum to those spans' duration.
	self := selfTimes(spans, "op")
	for k, x := range selfTimes(spans, "replay") {
		self[k] += x
	}
	layerOf := map[string]string{
		"op": "unattributed", "replay": "unattributed",
		"lyserve.post": "lyserve", "lyserve.stream": "lyserve",
	}
	if l.ops > 0 {
		agg := make(map[string]float64)
		for name, x := range self {
			layer := name
			if m, ok := layerOf[name]; ok {
				layer = m
			}
			agg[layer] += x
		}
		for layer, x := range agg {
			put("self."+layer+"_ms")(x/float64(l.ops), true)
		}
	}
	tv, uv := median(s["trace.verdict_ms"]), median(s["trace.untraced_ms"])
	put("trace.verdict_ms")(tv.Value, has("trace.verdict_ms"))
	put("trace.untraced_ms")(uv.Value, has("trace.untraced_ms"))
	put("trace.overhead_ms")(tv.Value-uv.Value, has("trace.verdict_ms", "trace.untraced_ms"))

	out := make(map[string]metric, len(perLayer))
	var na []string
	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			na = append(na, m.name)
		}
		out[m.name] = metric{Value: x, Unit: m.unit}
	}
	return out, na
}
