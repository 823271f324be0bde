package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/topology"
)

// verdicts summarizes one verification's answers in a form the untraced
// program call and the traced replay can both be reduced to and compared.
type verdicts struct {
	checks   int             // local checks enumerated
	distinct int             // distinct check keys (uncacheable checks count once each)
	problems map[string]bool // problem name -> ok
	unknowns int
}

func (v verdicts) failing() []string {
	var out []string
	for name, ok := range v.problems {
		if !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// diff lists how two summaries of the same input disagree. Distinct-key
// counts are compared only when both sides know them (> 0).
func (v verdicts) diff(w verdicts) []string {
	var errs []string
	if v.checks != w.checks {
		errs = append(errs, fmt.Sprintf("checks %d vs %d", v.checks, w.checks))
	}
	if v.distinct > 0 && w.distinct > 0 && v.distinct != w.distinct {
		errs = append(errs, fmt.Sprintf("distinct keys %d vs %d", v.distinct, w.distinct))
	}
	if len(v.problems) != len(w.problems) {
		errs = append(errs, fmt.Sprintf("problems %d vs %d", len(v.problems), len(w.problems)))
	}
	for name, ok := range v.problems {
		if wok, found := w.problems[name]; !found || wok != ok {
			errs = append(errs, fmt.Sprintf("problem %s: ok=%v vs %v (present=%v)", name, ok, wok, found))
		}
	}
	if v.unknowns != w.unknowns {
		errs = append(errs, fmt.Sprintf("unknowns %d vs %d", v.unknowns, w.unknowns))
	}
	return errs
}

// fromPlanResult reduces an untraced plan.Run result. On a fresh engine
// every distinct key is solved exactly once, so ChecksSolved is the
// distinct-key count; on a shared engine (fresh == false) it is not known.
func fromPlanResult(res *plan.Result, fresh bool) verdicts {
	v := verdicts{checks: int(res.Engine.ChecksSubmitted), problems: make(map[string]bool), unknowns: res.Unknowns}
	if fresh {
		v.distinct = int(res.Engine.ChecksSolved)
	}
	for _, pr := range res.Properties {
		for _, p := range pr.Problems {
			v.problems[p.Name] = p.OK
		}
	}
	return v
}

// enumerate generates every problem's checks, as plan.Run and the delta
// verifier do.
func enumerate(problems []netgen.Problem, opts core.Options) (checks [][]core.Check, props []core.Property, err error) {
	for _, p := range problems {
		var cs []core.Check
		var prop core.Property
		switch {
		case p.Safety != nil:
			prop, cs = p.Safety.Property, p.Safety.Checks(opts)
		case p.Liveness != nil:
			prop = p.Liveness.Property
			if cs, err = p.Liveness.Checks(opts); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", p.Name, err)
			}
		default:
			return nil, nil, fmt.Errorf("%s: empty problem", p.Name)
		}
		checks = append(checks, cs)
		props = append(props, prop)
	}
	return checks, props, nil
}

// countKeys counts checks and distinct cache keys (an uncacheable check,
// with an empty key, counts once each) and returns the set of keys.
func countKeys(checks [][]core.Check) (total, distinct int, keys map[string]struct{}) {
	keys = make(map[string]struct{})
	for _, cs := range checks {
		for _, c := range cs {
			if c.Key() == "" {
				distinct++
			} else {
				keys[c.Key()] = struct{}{}
			}
		}
		total += len(cs)
	}
	return total, distinct + len(keys), keys
}

// replay verifies problems layer by layer, in the order plan.Run calls the
// layers, with a span around each call under the root span of verification
// op: check enumeration and keying (core), admission and submission, the
// wait for every job (engine, whose phased backend nests the solve spans
// under it), and report encoding (report). eng must use l.ph as its
// backend.
func replay(l *layers, eng *engine.Engine, problems []netgen.Problem, tenant string, op, root int) (verdicts, error) {
	tr := l.tr
	before := eng.Stats()
	checks, props, err := l.enumerate(problems, core.Options{}, op, root)
	if err != nil {
		return verdicts{}, err
	}
	total, distinct, _ := countKeys(checks)
	l.add("core.distinct", float64(distinct))

	es := tr.begin("engine", root, op)
	l.ph.scope(op, es)
	t0 := time.Now()
	resv, err := eng.Reserve(tenant, total)
	if err != nil {
		tr.end(es)
		return verdicts{}, err
	}
	defer resv.Release()
	jobs := make([]*engine.Job, len(problems))
	for i := range problems {
		jobs[i], err = eng.Submit(context.Background(), engine.Workload{
			Kind: engine.KindChecks, Property: props[i], Checks: checks[i], Tenant: tenant, Reservation: resv,
		})
		if err != nil {
			tr.end(es)
			return verdicts{}, err
		}
	}
	l.add("engine.submit_ms", sinceMs(t0))
	t1 := time.Now()
	reps := make([]*core.Report, len(jobs))
	for i, j := range jobs {
		reps[i] = j.Wait()
	}
	l.add("engine.wait_ms", sinceMs(t1))
	tr.end(es)

	v := verdicts{checks: total, distinct: distinct, problems: make(map[string]bool)}
	rd := tr.timed("report", root, op, func() {
		for i, rep := range reps {
			enc := engine.EncodeReport(rep)
			v.problems[problems[i].Name] = enc.OK
			v.unknowns += len(rep.Unknowns())
		}
	})
	l.add("report.encode_ms", float64(rd.Nanoseconds())/1e6)
	after := eng.Stats()
	l.add("engine.solved", float64(after.ChecksSolved-before.ChecksSolved))
	l.add("engine.hits", float64(after.CacheHits-before.CacheHits))
	l.add("engine.dedup", float64(after.DedupHits-before.DedupHits))
	l.add("engine.submitted", float64(after.ChecksSubmitted-before.ChecksSubmitted))
	return v, nil
}

// compiledOn re-targets a compiled plan at another state of its network:
// the same properties and scopes, with problems rebuilt on n — what
// compiling the request against n would produce.
func compiledOn(c *plan.Compiled, n *topology.Network) *plan.Compiled {
	out := &plan.Compiled{Request: c.Request, Network: n, Params: c.Params}
	for _, u := range c.Units {
		out.Units = append(out.Units, plan.Unit{
			Property: u.Property, Suite: u.Suite,
			Problems: u.Suite.Problems(n, c.Params, u.Property.Scope()),
		})
	}
	return out
}

// prefixed puts label in front of each message, in place.
func prefixed(label string, errs []string) []string {
	for i := range errs {
		errs[i] = label + ": " + errs[i]
	}
	return errs
}
