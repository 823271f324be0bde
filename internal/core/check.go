package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// CheckKind classifies a generated local check.
type CheckKind int

// Local check kinds. ImportCheck/ExportCheck/OriginateCheck are the safety
// checks of §4.2; ImplicationCheck is the final I_ℓ ⊆ P check;
// PropagationCheck and InterferenceCheck are the liveness checks of §5.2.
const (
	ImportCheck CheckKind = iota
	ExportCheck
	OriginateCheck
	ImplicationCheck
	PropagationCheck
	InterferenceCheck
)

func (k CheckKind) String() string {
	switch k {
	case ImportCheck:
		return "import"
	case ExportCheck:
		return "export"
	case OriginateCheck:
		return "originate"
	case ImplicationCheck:
		return "implication"
	case PropagationCheck:
		return "propagation"
	case InterferenceCheck:
		return "no-interference"
	}
	return fmt.Sprintf("check(%d)", int(k))
}

// Check is one generated local check: a declarative Obligation (what must be
// proven) bound to the execution options it was generated under. Construction
// and execution are separate — SafetyProblem.Checks / LivenessProblem.Checks
// build checks without solving anything, and an execution substrate (the
// sequential Verify* reference loop or internal/engine) decides the
// obligation later.
type Check struct {
	Kind CheckKind
	Loc  Location // the edge or router the check pertains to
	Desc string
	key  string // semantic cache key for incremental verification

	ob     *Obligation
	budget int64 // conflict budget from the generating Options
}

// newCheck binds an obligation to the generating options' execution
// parameters, mirroring the obligation's identity onto the check.
func newCheck(ob *Obligation, opts Options) Check {
	return Check{
		Kind:   ob.Kind,
		Loc:    ob.Loc,
		Desc:   ob.Desc,
		key:    ob.key,
		ob:     ob,
		budget: opts.ConflictBudget,
	}
}

// Key returns the check's semantic cache key: a hash of everything the
// check's verdict depends on (the filter's policy, the predicates involved,
// the ghost updates). Two checks with the same key decide the same formula,
// so a result may be shared between them — the hook the engine's
// cross-problem dedup and result cache are built on. An empty key means the
// check is not cacheable.
func (c Check) Key() string { return c.key }

// Obligation returns the check's declarative content. Execution substrates
// that route checks to solver backends (internal/engine) solve the
// obligation directly and stamp the result with the check's identity.
func (c Check) Obligation() *Obligation { return c.ob }

// Budget returns the conflict budget the check was generated under
// (Options.ConflictBudget; 0 = unlimited). External execution substrates
// honor it so a check batch generated with a bounded budget keeps that
// bound wherever it runs.
func (c Check) Budget() int64 { return c.budget }

// Run executes the check and returns its result. Checks are self-contained
// and independent, so Run may be called from any goroutine.
func (c Check) Run() CheckResult { return c.RunContext(context.Background()) }

// RunContext executes the check on the native in-process solver with
// cooperative cancellation: when ctx is cancelled mid-solve the result has
// StatusUnknown. The check's generating Options decide the conflict budget;
// other solver backends are reached through internal/engine.
func (c Check) RunContext(ctx context.Context) CheckResult {
	r := c.ob.Solve(ctx, SolveConfig{ConflictBudget: c.budget})
	// The obligation may be shared (relabeled checks); the result reports
	// the running check's identity.
	r.Kind, r.Loc, r.Desc = c.Kind, c.Loc, c.Desc
	return r
}

// Counterexample is a concrete witness for a failed local check: an input
// route that the filter at the named location handles in a way that violates
// the local invariant.
type Counterexample struct {
	Input  *routemodel.Route // route arriving at the filter
	Output *routemodel.Route // transformed route (nil if rejected/irrelevant)
	Note   string
}

func (c *Counterexample) String() string {
	if c == nil {
		return "<none>"
	}
	var b strings.Builder
	if c.Input != nil {
		fmt.Fprintf(&b, "input:  %s", c.Input)
	}
	if c.Output != nil {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "output: %s", c.Output)
	}
	if c.Note != "" {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "note:   %s", c.Note)
	}
	return b.String()
}

// CheckResult is the outcome of one local check.
type CheckResult struct {
	Kind CheckKind
	Loc  Location
	Desc string
	// OK mirrors Status == StatusOK; it is kept as a field because nearly
	// every consumer only needs the boolean.
	OK bool
	// Status distinguishes a proven violation (StatusFail) from an undecided
	// check (StatusUnknown — budget exhausted or cancelled). Both have
	// OK == false; only StatusFail carries a real counterexample.
	Status Status
	// Backend labels the solver path that produced the verdict ("native",
	// "portfolio/<variant>", "remote(<worker>)/native", ...). Empty for results
	// assembled outside a solver (e.g. replayed from a persistent store).
	Backend        string
	Counterexample *Counterexample

	NumVars   int           // SAT variables in this check's formula
	NumCons   int           // CNF clauses in this check's formula
	NumTerms  int           // term-graph nodes built while encoding
	SolveTime time.Duration // time inside the solver
	TotalTime time.Duration // encode + solve

	// Solver is the CDCL search provenance behind the verdict. Zero for
	// results decided without search (concrete evaluation, cache replay).
	Solver SolveStats
}

// SolveStats is the CDCL search provenance of one check: how hard the
// solver worked, not just how long it took.
type SolveStats struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"` // clauses learned during search
}

// Add accumulates o into s (used by per-job and per-backend aggregates).
func (s *SolveStats) Add(o SolveStats) {
	s.Conflicts += o.Conflicts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Restarts += o.Restarts
	s.Learned += o.Learned
}

// Depth reports whether any real search happened (any counter non-zero).
func (s SolveStats) Depth() bool {
	return s.Conflicts != 0 || s.Decisions != 0 || s.Propagations != 0 ||
		s.Restarts != 0 || s.Learned != 0
}

// Report aggregates the results of all local checks for one verification
// problem.
type Report struct {
	Property Property
	Results  []CheckResult

	TotalTime time.Duration
}

// OK reports whether every local check passed; if so the end-to-end
// property is guaranteed (correctness theorems of §4.3 and §5.3).
func (r *Report) OK() bool {
	for i := range r.Results {
		if !r.Results[i].OK {
			return false
		}
	}
	return true
}

// Failures returns every check result that did not pass — proven violations
// and undecided (Unknown) checks alike. Use HardFailures/Unknowns to tell
// them apart.
func (r *Report) Failures() []CheckResult {
	var out []CheckResult
	for i := range r.Results {
		if !r.Results[i].OK {
			out = append(out, r.Results[i])
		}
	}
	return out
}

// HardFailures returns the checks with a proven violation (StatusFail),
// excluding undecided checks.
func (r *Report) HardFailures() []CheckResult {
	var out []CheckResult
	for i := range r.Results {
		if r.Results[i].Status == StatusFail {
			out = append(out, r.Results[i])
		}
	}
	return out
}

// Unknowns returns the undecided checks (StatusUnknown): the solver budget
// was exhausted or the solve was cancelled before a verdict.
func (r *Report) Unknowns() []CheckResult {
	var out []CheckResult
	for i := range r.Results {
		if r.Results[i].Status == StatusUnknown {
			out = append(out, r.Results[i])
		}
	}
	return out
}

// NumChecks returns the number of local checks run.
func (r *Report) NumChecks() int { return len(r.Results) }

// MaxVars returns the maximum SAT variable count in any single local check —
// the quantity plotted in Figure 3b.
func (r *Report) MaxVars() int {
	m := 0
	for i := range r.Results {
		if r.Results[i].NumVars > m {
			m = r.Results[i].NumVars
		}
	}
	return m
}

// MaxCons returns the maximum CNF clause count in any single local check
// (Figure 3b).
func (r *Report) MaxCons() int {
	m := 0
	for i := range r.Results {
		if r.Results[i].NumCons > m {
			m = r.Results[i].NumCons
		}
	}
	return m
}

// SolveTime returns the summed solver time across all checks (Figure 3d's
// "constraint solving time" series).
func (r *Report) SolveTime() time.Duration {
	var t time.Duration
	for i := range r.Results {
		t += r.Results[i].SolveTime
	}
	return t
}

// Summary renders a human-readable report. Proven violations print as FAIL
// lines with their counterexamples; undecided checks print as UNKNOWN lines
// (the property is not refuted — the solver budget was exhausted before a
// verdict, so escalate the budget or backend to decide them).
func (r *Report) Summary() string {
	var b strings.Builder
	unknowns := r.Unknowns()
	fmt.Fprintf(&b, "property: %s\n", r.Property)
	fmt.Fprintf(&b, "checks: %d, failed: %d, unknown: %d, total time: %v\n",
		r.NumChecks(), len(r.HardFailures()), len(unknowns), r.TotalTime)
	for _, f := range r.HardFailures() {
		fmt.Fprintf(&b, "FAIL [%s] at %s: %s\n", f.Kind, f.Loc, f.Desc)
		if f.Counterexample != nil {
			for _, line := range strings.Split(f.Counterexample.String(), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	for _, u := range unknowns {
		fmt.Fprintf(&b, "UNKNOWN [%s] at %s: %s (solver budget exhausted)\n", u.Kind, u.Loc, u.Desc)
	}
	if r.OK() {
		b.WriteString("all local checks passed: property verified\n")
	}
	return b.String()
}

// Options controls check generation.
type Options struct {
	// ConflictBudget bounds SAT effort per check; 0 means unlimited.
	ConflictBudget int64
}

// SortResults orders check results deterministically by (Kind, Loc, Desc).
// Desc breaks ties when one edge carries several checks of the same kind,
// keeping reports stable across runs regardless of execution order.
func SortResults(results []CheckResult) {
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Kind != results[j].Kind {
			return results[i].Kind < results[j].Kind
		}
		if li, lj := results[i].Loc.String(), results[j].Loc.String(); li != lj {
			return li < lj
		}
		return results[i].Desc < results[j].Desc
	})
}

// NewReport assembles a report from check results, sorting them
// deterministically. It is the single result-assembly path shared by the
// sequential reference executor and internal/engine.
func NewReport(prop Property, results []CheckResult, total time.Duration) *Report {
	SortResults(results)
	return &Report{Property: prop, Results: results, TotalTime: total}
}

// runChecks executes checks one after another and assembles a report — the
// sequential reference executor behind VerifySafety/VerifyLiveness, with
// no concurrency, caching or dedup. Parallel execution is internal/engine's.
func runChecks(prop Property, checks []Check) *Report {
	start := time.Now()
	results := make([]CheckResult, len(checks))
	for i := range checks {
		results[i] = checks[i].Run()
	}
	return NewReport(prop, results, time.Since(start))
}

// filterCheck builds the core local check pattern shared by §4.2 (import,
// export) and §5.2 (propagation): for a filter F on edge e with ghost
// actions gs,
//
//	∀r: pre(r) ∧ r' = F(r) ⇒ (r' = Reject ∨ post(r'))    (mustAccept=false)
//	∀r: pre(r) ∧ r' = F(r) ⇒ (r' ≠ Reject ∧ post(r'))    (mustAccept=true)
//
// It is decided by asking the solver for a route violating the implication;
// UNSAT means the check holds. The check carries the declarative obligation;
// nothing is encoded or solved until an execution substrate decides it.
func filterCheck(
	kind CheckKind,
	loc Location,
	desc string,
	u *spec.Universe,
	m *policy.RouteMap,
	ghostActs []policy.Action,
	pre, post spec.Pred,
	mustAccept bool,
	opts Options,
) Check {
	ghostStr := ""
	for _, a := range ghostActs {
		ghostStr += a.String() + ";"
	}
	ob := &Obligation{
		Kind: kind,
		Loc:  loc,
		Desc: desc,
		key:  checkKey(kind.String(), loc.String(), m.String(), ghostStr, pre.String(), post.String(), fmt.Sprint(mustAccept)),
		filter: &filterObligation{
			u: u, m: m, ghostActs: ghostActs,
			pre: pre, post: post, mustAccept: mustAccept,
		},
	}
	return newCheck(ob, opts)
}

// implicationCheck decides pre ⊆ post (i.e., ∀r: pre(r) ⇒ post(r)) as a
// standalone check, used for I_ℓ ⊆ P and C_n ⊆ P.
func implicationCheck(loc Location, desc string, u *spec.Universe, pre, post spec.Pred, opts Options) Check {
	ob := &Obligation{
		Kind:        ImplicationCheck,
		Loc:         loc,
		Desc:        desc,
		key:         checkKey("implication", loc.String(), pre.String(), post.String()),
		implication: &implicationObligation{u: u, pre: pre, post: post},
	}
	return newCheck(ob, opts)
}

// originateCheck validates every originated route on edge e against the
// edge invariant. Originated routes are concrete, so this check evaluates
// the predicate directly rather than calling the solver.
func originateCheck(e topology.Edge, desc string, routes []*routemodel.Route, ghosts []GhostDef, inv spec.Pred, opts Options) Check {
	routeStr := ""
	for _, r := range routes {
		routeStr += r.String() + ";"
	}
	ghostStr := ""
	for _, g := range ghosts {
		ghostStr += g.Name + ";"
	}
	ob := &Obligation{
		Kind:      OriginateCheck,
		Loc:       AtEdge(e),
		Desc:      desc,
		key:       checkKey("originate", AtEdge(e).String(), routeStr, ghostStr, inv.String()),
		originate: &originateObligation{e: e, routes: routes, ghosts: ghosts, inv: inv},
	}
	return newCheck(ob, opts)
}
