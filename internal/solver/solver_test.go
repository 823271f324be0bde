package solver_test

import (
	"context"
	"reflect"
	"testing"

	"lightyear/internal/core"
	_ "lightyear/internal/fabric" // registers the remote backend
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
	"lightyear/internal/topology"
)

// suiteNetwork builds a network appropriate for a registered suite.
func suiteNetwork(name string) (*topology.Network, netgen.SuiteParams) {
	switch name {
	case "fullmesh":
		return netgen.FullMesh(4), netgen.SuiteParams{}
	case "wan-peering", "wan-ip-reuse", "wan-ip-liveness":
		p := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 1, DCsPerRegion: 1, PeersPerEdge: 2}
		return netgen.WAN(p, netgen.WANBugs{}), netgen.SuiteParams{Regions: p.Regions}
	default: // the fig1 suites
		return netgen.Fig1(netgen.Fig1Options{}), netgen.SuiteParams{}
	}
}

// obligations enumerates the unique obligations (by semantic key) of every
// problem a suite builds on n. Optional problems whose path is absent are
// skipped, mirroring every execution substrate.
func obligations(t *testing.T, s netgen.Suite, n *topology.Network, params netgen.SuiteParams) []*core.Obligation {
	t.Helper()
	seen := map[string]bool{}
	var out []*core.Obligation
	for _, p := range s.Build(n, params) {
		var checks []core.Check
		var err error
		switch {
		case p.Safety != nil:
			checks = p.Safety.Checks(core.Options{})
		case p.Liveness != nil:
			checks, err = p.Liveness.Checks(core.Options{})
		}
		if err != nil {
			if p.Optional {
				continue
			}
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, c := range checks {
			if k := c.Key(); k == "" || !seen[k] {
				seen[c.Key()] = true
				out = append(out, c.Obligation())
			}
		}
	}
	return out
}

func backends(t *testing.T) map[string]solver.Backend {
	t.Helper()
	out := map[string]solver.Backend{}
	for _, name := range solver.Names() {
		spec := solver.Spec{Backend: name}
		if name == solver.RemoteName {
			// No live workers in unit tests: an unreachable pool exercises
			// the local-fallback path, so parity must still hold.
			spec.Workers = []string{"127.0.0.1:1"}
		}
		b, err := solver.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Fatalf("backend %q reports name %q", name, b.Name())
		}
		out[name] = b
	}
	return out
}

// TestCrossBackendParity: every registered suite must yield identical
// verdicts (the OK/Fail partition of its obligations) under the native and
// portfolio backends. Different heuristics may find different
// counterexamples, but the verdict is a property of the formula.
func TestCrossBackendParity(t *testing.T) {
	bs := backends(t)
	for _, s := range netgen.Suites() {
		n, params := suiteNetwork(s.Name)
		obs := obligations(t, s, n, params)
		if len(obs) == 0 {
			t.Fatalf("suite %s produced no obligations", s.Name)
		}
		for _, ob := range obs {
			want := bs["native"].Solve(context.Background(), ob, solver.Budget{})
			if want.Status == core.StatusUnknown {
				t.Fatalf("%s: native left %q unknown with unlimited budget", s.Name, ob.Desc)
			}
			got := bs["portfolio"].Solve(context.Background(), ob, solver.Budget{})
			if got.Status != want.Status {
				t.Errorf("suite %s, check %q: portfolio=%v native=%v",
					s.Name, ob.Desc, got.Status, want.Status)
			}
		}
	}
}

// TestCrossBackendParityOnFailures: the backends agree on a network with a
// planted bug, where some obligations are satisfiable (Fail).
func TestCrossBackendParityOnFailures(t *testing.T) {
	bs := backends(t)
	n := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	p := netgen.Fig1NoTransitProblem(n)
	fails := 0
	for _, c := range p.Checks(core.Options{}) {
		ob := c.Obligation()
		want := bs["native"].Solve(context.Background(), ob, solver.Budget{})
		if want.Status == core.StatusFail {
			fails++
			if want.Counterexample == nil {
				t.Fatalf("failed check %q has no counterexample", ob.Desc)
			}
		}
		got := bs["portfolio"].Solve(context.Background(), ob, solver.Budget{})
		if got.Status != want.Status {
			t.Errorf("check %q: portfolio=%v native=%v", ob.Desc, got.Status, want.Status)
		}
		if got.Status == core.StatusFail && got.Counterexample == nil {
			t.Errorf("check %q: portfolio failed without a counterexample", ob.Desc)
		}
	}
	if fails == 0 {
		t.Fatal("buggy network produced no failing obligation")
	}
}

// TestNativeBudgetYieldsUnknown: a conflict budget of 1 cannot decide the
// nontrivial checks; they must come back StatusUnknown, never a wrong
// verdict.
func TestNativeBudgetYieldsUnknown(t *testing.T) {
	b, _ := solver.New(solver.Spec{Backend: "native", Budget: 1})
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)
	unknown := 0
	for _, c := range p.Checks(core.Options{}) {
		out := b.Solve(context.Background(), c.Obligation(), solver.Budget{})
		switch out.Status {
		case core.StatusUnknown:
			unknown++
			if out.OK {
				t.Fatal("unknown result must not claim OK")
			}
		case core.StatusFail:
			t.Fatalf("budgeted solve invented a failure for %q", c.Desc)
		}
	}
	if unknown == 0 {
		t.Fatal("budget 1 decided every check; expected unknowns")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    solver.Spec
		wantErr bool
	}{
		{in: "native", want: solver.Spec{Backend: "native"}},
		{in: "portfolio", want: solver.Spec{Backend: "portfolio"}},
		{in: "portfolio:500", want: solver.Spec{Backend: "portfolio", Budget: 500}},
		{in: "remote:h1:9001,h2:9001", want: solver.Spec{Backend: "remote", Workers: []string{"h1:9001", "h2:9001"}}},
		{in: "remote: h1:9001 ,, h2:9001 ", want: solver.Spec{Backend: "remote", Workers: []string{"h1:9001", "h2:9001"}}},
		{in: "remote", wantErr: true},
		{in: "remote:", wantErr: true},
		{in: "bogus", wantErr: true},
		{in: "tiered", wantErr: true}, // retired backend
		{in: "portfolio:x", wantErr: true},
		{in: "native:-5", wantErr: true},
		{in: "native:1e3", wantErr: true},
		{in: "native:100abc", wantErr: true},
	}
	for _, c := range cases {
		got, err := solver.ParseSpec(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSpec(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if _, err := solver.New(solver.Spec{Backend: "bogus"}); err == nil {
		t.Error("New accepted an unknown backend")
	}
	if got, want := solver.Names(), []string{"native", "portfolio", "remote"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

// TestSameConfig: identically-specced backends from separate New calls are
// interchangeable; different budgets are not.
func TestSameConfig(t *testing.T) {
	mk := func(s solver.Spec) solver.Backend {
		b, err := solver.New(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range solver.Names() {
		spec := solver.Spec{Backend: name}
		if name == solver.RemoteName {
			// The remote backend (registered by the fabric import) needs a
			// worker list; nothing is contacted at construction time.
			spec.Workers = []string{"127.0.0.1:1"}
		}
		a := mk(spec)
		b := mk(spec)
		if !solver.SameConfig(a, b) {
			t.Errorf("two default %s backends not recognized as same config", name)
		}
		spec.Budget = 7
		c := mk(spec)
		if solver.SameConfig(a, c) {
			t.Errorf("%s backends with different budgets reported as same config", name)
		}
	}
	// Variant heuristic flags are part of a portfolio's configuration, not
	// just the variant names.
	p1 := solver.PortfolioOf(0, []solver.Variant{{Name: "v", DisableVSIDS: true}})
	p2 := solver.PortfolioOf(0, []solver.Variant{{Name: "v", PositivePhase: true}})
	if solver.SameConfig(p1, p2) {
		t.Error("portfolios with same variant names but different flags reported as same config")
	}
	p3 := solver.PortfolioOf(0, []solver.Variant{{Name: "v", DisableVSIDS: true}})
	if !solver.SameConfig(p1, p3) {
		t.Error("identically-configured portfolios not recognized as same config")
	}
}
