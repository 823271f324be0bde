package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/smt"
	"lightyear/internal/solver"
)

// A span is one timed call into a layer. Spans of one verification share
// Op; Parent links a span to the call that caused it (0 for a root).
// Pipeline spans sit under a root named "op" (the verification itself);
// probe spans are roots of their own, timing a layer call the program also
// makes inside an opaque call (e.g. enumeration inside Verifier.Update).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; the run writes them out at the end.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
	t.mu.Lock()
	s := t.spans[id-1]
	t.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// ms returns a finished span's duration in milliseconds.
func (t *tracer) ms(id int) float64 {
	t.mu.Lock()
	s := t.spans[id-1]
	t.mu.Unlock()
	return float64(s.End-s.Start) / 1e6
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations (ms) of every span with the given name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes attributes the wall time of every verification — each root
// span of the given name — to layers: each instant goes to the innermost
// spans open at that instant (those with no open child), split evenly when
// several run in parallel, as engine workers' solves do. Where spans do
// not overlap, a span's share is its duration minus the part its children
// cover; either way the shares of one verification sum to its duration.
// The result is in milliseconds per layer name.
func selfTimes(spans []span, root string) map[string]float64 {
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	byID := func(id int) span { return spans[id-1] }
	out := make(map[string]float64)
	type event struct {
		t    int64
		open bool
		id   int
	}
	for _, r := range spans {
		if r.Parent != 0 || r.Name != root {
			continue
		}
		var evs []event
		stack := []int{r.ID}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := byID(id)
			evs = append(evs, event{s.Start, true, id}, event{s.End, false, id})
			stack = append(stack, kids[id]...)
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return !evs[i].open && evs[j].open // close before open at a tie
		})
		openKids := make(map[int]int)
		innermost := make(map[int]struct{})
		prev := r.Start
		for _, e := range evs {
			if e.t > prev && len(innermost) > 0 {
				share := float64(e.t-prev) / float64(len(innermost)) / 1e6
				for id := range innermost {
					out[byID(id).Name] += share
				}
			}
			prev = max(prev, e.t)
			p := byID(e.id).Parent
			if e.open {
				innermost[e.id] = struct{}{}
				if p != 0 {
					if openKids[p]++; openKids[p] == 1 {
						delete(innermost, p)
					}
				}
				continue
			}
			delete(innermost, e.id)
			if p != 0 {
				if openKids[p]--; openKids[p] == 0 {
					innermost[p] = struct{}{}
				}
			}
		}
	}
	return out
}

// solvedOb is one obligation a traced verification decided, with the
// figures its encode, blast and SAT calls produced.
type solvedOb struct {
	ob        *core.Obligation
	status    core.Status
	terms     int
	vars      int
	clauses   int
	conflicts int64
}

// phased is the solver backend of a traced run. It decides each obligation
// by calling the smt layer's public functions in pipeline order —
// Obligation.Encode, Solver.Assert (bit-blast to CNF), Solver.Check (SAT),
// and Obligation.Witness for a failure — with a span around each call, so
// the engine's solve time splits into its layers. Verdicts match
// Obligation.Solve's; probeSolver checks that on every traced run.
type phased struct {
	tr *tracer

	mu     sync.Mutex
	op     int // the verification the engine is working on
	parent int // the span solves nest under
	solved []solvedOb
}

// Name labels results like the default backend's, so reports read the same.
func (b *phased) Name() string { return "native" }

// scope directs the spans of subsequent solves to (op, parent) and returns
// the obligations solved under the previous scope.
func (b *phased) scope(op, parent int) []solvedOb {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := b.solved
	b.op, b.parent, b.solved = op, parent, nil
	return prev
}

func (b *phased) Solve(ctx context.Context, ob *core.Obligation, bud solver.Budget) solver.Outcome {
	b.mu.Lock()
	op, parent := b.op, b.parent
	b.mu.Unlock()
	tr := b.tr
	sp := tr.begin("solve", parent, op)
	defer tr.end(sp)
	t0 := time.Now()
	cr := core.CheckResult{Kind: ob.Kind, Loc: ob.Loc, Desc: ob.Desc, Backend: "native"}
	rec := solvedOb{ob: ob}
	if ob.Concrete() {
		ok, ce := ob.EvalConcrete()
		cr.OK, cr.Status = ok, core.StatusOK
		if !ok {
			cr.Status, cr.Counterexample = core.StatusFail, ce
		}
	} else {
		sctx := smt.NewContext()
		var formula *smt.Term
		tr.timed("encode", sp, op, func() { formula = ob.Encode(sctx) })
		rec.terms = sctx.NumTerms()
		s := smt.NewSolver(sctx)
		if bud.Conflicts > 0 {
			s.SetConflictBudget(bud.Conflicts)
		}
		tr.timed("blast", sp, op, func() { s.Assert(formula) })
		var res smt.Result
		cr.SolveTime = tr.timed("sat", sp, op, func() { res = s.Check() })
		cr.NumVars, cr.NumCons, cr.NumTerms = res.NumVars, res.NumCons, res.NumTerms
		cr.Solver = core.SolveStats{Conflicts: res.Stats.Conflicts, Decisions: res.Stats.Decisions,
			Propagations: res.Stats.Propagations, Restarts: res.Stats.Restarts, Learned: res.Stats.LearnedTotal}
		rec.vars, rec.clauses, rec.conflicts = res.NumVars, res.NumCons, res.Stats.Conflicts
		switch res.Status {
		case smt.Unsat:
			cr.OK, cr.Status = true, core.StatusOK
		case smt.Sat:
			cr.Status = core.StatusFail
			tr.timed("witness", sp, op, func() { cr.Counterexample = ob.Witness(res.Model) })
		default:
			cr.Status = core.StatusUnknown
			cr.Counterexample = &core.Counterexample{Note: "solver budget exhausted (unknown)"}
		}
	}
	cr.TotalTime = time.Since(t0)
	rec.status = cr.Status
	b.mu.Lock()
	if b.op == op {
		b.solved = append(b.solved, rec)
	}
	b.mu.Unlock()
	return solver.Outcome{CheckResult: cr}
}

// probeSample bounds how many of a verification's propagation-only
// obligations the sequential probes (allocations, the solver-backend
// cross-check) re-run.
const probeSample = 24

// obProbe holds the sequential per-obligation measurements of one traced
// verification.
type obProbe struct {
	encodeAllocs []float64 // allocations per Obligation.Encode
	solverUs     []float64 // µs per Backend.Solve via solver.New
	unknowns     int
}

// probeObligations re-runs a sample of a traced verification's solved
// obligations one at a time: Encode under runtime.MemStats (allocation
// counts need a single goroutine), then the production backend built by
// solver.New, whose verdict must equal the phased replay's. It returns the
// disagreements.
func probeObligations(tr *tracer, op int, solved []solvedOb, into *obProbe) []string {
	backend, err := solver.New(solver.Spec{})
	if err != nil {
		return []string{err.Error()}
	}
	var mismatches []string
	// Every obligation that needed search is probed; the propagation-only
	// rest is sampled evenly.
	var sample []solvedOb
	var rest []solvedOb
	for _, s := range solved {
		if s.conflicts > 0 {
			sample = append(sample, s)
		} else {
			rest = append(rest, s)
		}
	}
	step := 1
	if len(rest) > probeSample {
		step = len(rest) / probeSample
	}
	for i := 0; i < len(rest); i += step {
		sample = append(sample, rest[i])
	}
	var ms0, ms1 runtime.MemStats
	for _, s := range sample {
		if !s.ob.Concrete() {
			runtime.ReadMemStats(&ms0)
			s.ob.Encode(smt.NewContext())
			runtime.ReadMemStats(&ms1)
			into.encodeAllocs = append(into.encodeAllocs, float64(ms1.Mallocs-ms0.Mallocs))
		}
		var out solver.Outcome
		d := tr.timed("solver", 0, op, func() { out = backend.Solve(context.Background(), s.ob, solver.Budget{}) })
		into.solverUs = append(into.solverUs, float64(d.Nanoseconds())/1e3)
		if out.Status == core.StatusUnknown {
			into.unknowns++
		}
		if out.Status != s.status {
			mismatches = append(mismatches, s.ob.Desc+": solver.New says "+out.Status.String()+", replay says "+s.status.String())
		}
	}
	return mismatches
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
