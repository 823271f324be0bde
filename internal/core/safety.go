package core

import (
	"fmt"

	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// SafetyProblem is the input to modular safety verification (§4.1): the
// network, the end-to-end property (ℓ, P), the per-location network
// invariants I, and any ghost attribute definitions the predicates rely on.
type SafetyProblem struct {
	Network    *topology.Network
	Property   Property
	Invariants *Invariants
	Ghosts     []GhostDef
}

// universe assembles the finite attribute alphabet for the problem.
func (p *SafetyProblem) universe() *spec.Universe {
	u := p.Network.Universe()
	p.Property.Pred.AddToUniverse(u)
	p.Invariants.AddToUniverse(u)
	addGhostsToUniverse(u, p.Ghosts)
	return u
}

// Checks generates the local checks of §4.2 without running them:
//
//   - an Import check per edge A→B with B internal, proving I_B from I_{A→B};
//   - an Export check per edge A→B with A internal, proving I_{A→B} from I_A;
//   - an Originate check per edge with originated routes;
//   - one Implication check proving I_ℓ ⊆ P.
//
// The number of checks is linear in the number of edges; each check's size
// depends only on one filter's policy, which is the source of Lightyear's
// scalability (Figure 3b).
func (p *SafetyProblem) Checks(opts Options) []Check {
	u := p.universe()
	n := p.Network
	var checks []Check
	for _, e := range n.Edges() {
		e := e
		edgeInv := p.Invariants.At(n, AtEdge(e))
		if !n.IsExternal(e.To) {
			post := p.Invariants.At(n, AtRouter(e.To))
			checks = append(checks, filterCheck(
				ImportCheck, AtEdge(e),
				fmt.Sprintf("import at %s from %s: %q ⇒ %q", e.To, e.From, edgeInv, post),
				u, n.Import(e), ghostImportActions(p.Ghosts, e),
				edgeInv, post, false, opts,
			))
		}
		if !n.IsExternal(e.From) {
			pre := p.Invariants.At(n, AtRouter(e.From))
			checks = append(checks, filterCheck(
				ExportCheck, AtEdge(e),
				fmt.Sprintf("export at %s to %s: %q ⇒ %q", e.From, e.To, pre, edgeInv),
				u, n.Export(e), ghostExportActions(p.Ghosts, e),
				pre, edgeInv, false, opts,
			))
			if routes := n.Originate(e); len(routes) > 0 {
				checks = append(checks, originateCheck(
					e, fmt.Sprintf("originated routes on %s satisfy %q", e, edgeInv),
					routes, p.Ghosts, edgeInv, opts,
				))
			}
		}
	}
	checks = append(checks, implicationCheck(
		p.Property.Loc,
		fmt.Sprintf("invariant at %s implies property", p.Property.Loc),
		u,
		p.Invariants.At(n, p.Property.Loc),
		p.Property.Pred,
		opts,
	))
	return checks
}

// VerifySafety runs all local checks for a safety problem. If the returned
// report is OK, the property holds for all valid traces — all external
// announcements and arbitrary node/link failures (Theorem §4.3, §4.5).
// Checks run sequentially; see runChecks.
func VerifySafety(p *SafetyProblem, opts Options) *Report {
	return runChecks(p.Property, p.Checks(opts))
}
