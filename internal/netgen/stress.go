package netgen

import (
	"fmt"

	"lightyear/internal/core"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// This file is the sat-stress suite: adversarial solver load for the
// pluggable backend layer (internal/solver). Every route-map check the other
// suites generate is decided by unit propagation alone — the source of the
// paper's scalability, but useless for exercising conflict budgets or
// portfolio racing. The stress suite plants obligations whose
// refutation genuinely requires CDCL search: propositional pigeonhole
// instances encoded over community atoms, attached as the final implication
// check of an otherwise-trivial safety problem. The network is whatever the
// plan supplies; only the property predicate is adversarial, so the suite
// composes with any network source like every other registry suite.

// stressHoles are the pigeonhole sizes the suite builds, one problem each.
// PHP(h+1, h) needs exponentially many resolution steps in h, so these stay
// small enough to decide in milliseconds at full budget while guaranteeing
// conflicts — a 1-conflict budget always returns Unknown on them.
var stressHoles = []int{3, 4, 5}

// pigeonholePred builds the propositional pigeonhole principle PHP(pigeons,
// holes) over community atoms: every pigeon sits in some hole, and no two
// pigeons share a hole. With pigeons > holes the conjunction is
// unsatisfiable, but refuting it requires genuine search — unit propagation
// derives nothing from the initial clauses. The spec.Named wrapper gives the
// quadratically large conjunction a compact rendering — the name is what
// check keys hash, so it encodes both pigeonhole dimensions — and keeps the
// predicate wire-encodable for remote solves.
func pigeonholePred(pigeons, holes int) spec.Pred {
	return spec.Named(
		fmt.Sprintf("pigeonhole(%d pigeons, %d holes)", pigeons, holes),
		rawPigeonhole(pigeons, holes),
	)
}

// StressPigeonholePred exposes the pigeonhole predicate for benchmarks and
// wire-codec tests that need a genuinely hard, remotable formula.
func StressPigeonholePred(pigeons, holes int) spec.Pred {
	return pigeonholePred(pigeons, holes)
}

func rawPigeonhole(pigeons, holes int) spec.Pred {
	atom := func(p, h int) spec.Pred {
		// One community atom per (pigeon, hole) pair; the 65099 ASN keeps
		// the atoms disjoint from every other suite's communities.
		return spec.HasCommunity(routemodel.MustCommunity(fmt.Sprintf("65099:%d", p*holes+h+1)))
	}
	var clauses []spec.Pred
	for p := 0; p < pigeons; p++ {
		hs := make([]spec.Pred, holes)
		for h := 0; h < holes; h++ {
			hs[h] = atom(p, h)
		}
		clauses = append(clauses, spec.Or(hs...))
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, spec.Or(spec.Not(atom(p1, h)), spec.Not(atom(p2, h))))
			}
		}
	}
	return spec.And(clauses...)
}

// StressProblem builds the safety problem for one pigeonhole size anchored
// at the network's first router (see StressProblemAt).
func StressProblem(n *topology.Network, holes int) *core.SafetyProblem {
	routers := n.Routers()
	if len(routers) == 0 {
		return nil
	}
	return StressProblemAt(n, routers[0], holes)
}

// StressProblemAt builds the safety problem for one pigeonhole size on n:
// all invariants are True, so every per-edge check is trivially valid, and
// the single implication check I_at ⊆ ¬PHP(holes+1, holes) at the anchor
// router carries the whole search load. The property holds (PHP is
// unsatisfiable), so the suite verifies OK — under any backend with enough
// budget.
func StressProblemAt(n *topology.Network, at topology.NodeID, holes int) *core.SafetyProblem {
	return &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtRouter(at),
			Pred: spec.Not(pigeonholePred(holes+1, holes)),
			Desc: fmt.Sprintf("pigeonhole-%d refutation (adversarial solver load)", holes),
		},
		Invariants: core.NewInvariants(spec.True()),
	}
}

func init() {
	registerSuite(Suite{
		Name: "sat-stress",
		Desc: "adversarial pigeonhole obligations exercising the solver backends",
		Problems: func(n *topology.Network, _ SuiteParams, sc Scope) []Problem {
			// The anchor router honors the scope's router subset, so a
			// scoped sat-stress property pins its load where the caller
			// asked (a scope selecting no router yields no problems, which
			// plan.Compile rejects rather than passing vacuously).
			var anchor topology.NodeID
			found := false
			for _, r := range n.Routers() {
				if sc.AllowRouter(r) {
					anchor, found = r, true
					break
				}
			}
			if !found {
				return nil
			}
			var out []Problem
			for _, holes := range stressHoles {
				out = append(out, Problem{
					Name:   fmt.Sprintf("pigeonhole-%d", holes),
					Safety: StressProblemAt(n, anchor, holes),
				})
			}
			return out
		},
	})
}
