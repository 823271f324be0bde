// Incremental re-verification: modularity means a configuration change only
// dirties the local checks that read the changed policy (§2). This example
// pins the Figure-1 network in an internal/delta session, edits one
// router's import policy, and re-verifies — showing how many checks were
// served from cache — then demonstrates catching a bug introduced by the
// edit and re-verifying after the fix. Each edit is made on a Clone of the
// previous state, so the session's pinned network is never mutated.
package main

import (
	"fmt"
	"log"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/policy"
	"lightyear/internal/topology"
)

func main() {
	suite, ok := netgen.Lookup("fig1-no-transit")
	if !ok {
		log.Fatal("fig1-no-transit suite not registered")
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, suite, netgen.SuiteParams{})

	n := netgen.Fig1(netgen.Fig1Options{})
	res, err := v.Baseline(n)
	must(err)
	fmt.Printf("initial run:   OK=%v, %d checks, %d from cache\n", res.OK, res.TotalChecks, res.ReusedResults)

	n = n.Clone()
	res, err = v.Update(n)
	must(err)
	fmt.Printf("unchanged run: OK=%v, %d checks, %d from cache\n", res.OK, res.TotalChecks, res.ReusedResults)

	// Benign edit: R3 lowers preference of routes learned from R1.
	n = n.Clone()
	n.SetImport(topology.Edge{From: "R1", To: "R3"}, &policy.RouteMap{
		Name: "r3-import-r1-v2",
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.SetLocalPref{Value: 90}}, Permit: true},
		},
	})
	res, err = v.Update(n)
	must(err)
	fmt.Printf("benign edit:   OK=%v, %d checks, %d from cache (only the edited filter re-ran)\n",
		res.OK, res.TotalChecks, res.ReusedResults)

	// Bad edit: R2 starts clearing communities on routes from R1, which
	// strips the 100:1 transit tag.
	n = n.Clone()
	n.SetImport(topology.Edge{From: "R1", To: "R2"}, &policy.RouteMap{
		Name: "r2-import-r1-v2",
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.ClearCommunities{}}, Permit: true},
		},
	})
	res, err = v.Update(n)
	must(err)
	fmt.Printf("bad edit:      OK=%v, %d checks, %d from cache\n", res.OK, res.TotalChecks, res.ReusedResults)
	for _, p := range res.Problems {
		if p.Report == nil {
			continue
		}
		for _, f := range p.Report.Failures() {
			fmt.Printf("  localized failure: [%s] at %s\n", f.Kind, f.Loc)
			if f.Counterexample != nil {
				fmt.Printf("  counterexample input:  %s\n", f.Counterexample.Input)
				if f.Counterexample.Output != nil {
					fmt.Printf("  counterexample output: %s\n", f.Counterexample.Output)
				}
			}
		}
	}

	// Revert the bad edit.
	n = n.Clone()
	n.SetImport(topology.Edge{From: "R1", To: "R2"}, nil)
	res, err = v.Update(n)
	must(err)
	fmt.Printf("after fix:     OK=%v, %d checks, %d from cache\n", res.OK, res.TotalChecks, res.ReusedResults)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
