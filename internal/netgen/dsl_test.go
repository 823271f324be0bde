package netgen_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

// TestFig1DSLRoundTrip: parsing the emitted Figure-1 configuration must
// verify exactly like the programmatic network, for the correct and all
// buggy variants.
func TestFig1DSLRoundTrip(t *testing.T) {
	variants := []netgen.Fig1Options{
		{},
		{OmitTransitTag: true},
		{SkipExportFilter: true},
		{StripAtR2: true},
		{ForgetStripAtR3: true},
	}
	for i, o := range variants {
		parsed, err := config.Parse(netgen.Fig1DSL(o))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		progOK := core.VerifySafety(netgen.Fig1NoTransitProblem(netgen.Fig1(o)), core.Options{}).OK()
		parsedOK := core.VerifySafety(netgen.Fig1NoTransitProblem(parsed), core.Options{}).OK()
		if progOK != parsedOK {
			t.Fatalf("variant %d: programmatic=%v parsed=%v", i, progOK, parsedOK)
		}
		progL, err := core.VerifyLiveness(netgen.Fig1LivenessProblem(netgen.Fig1(o)), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		parsedL, err := core.VerifyLiveness(netgen.Fig1LivenessProblem(parsed), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if progL.OK() != parsedL.OK() {
			t.Fatalf("variant %d liveness: programmatic=%v parsed=%v", i, progL.OK(), parsedL.OK())
		}
	}
}

func TestFullMeshDSLRoundTrip(t *testing.T) {
	for _, n := range []int{3, 6} {
		parsed, err := config.Parse(netgen.FullMeshDSL(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prog := netgen.FullMesh(n)
		if parsed.NumEdges() != prog.NumEdges() || len(parsed.Routers()) != len(prog.Routers()) {
			t.Fatalf("n=%d: shape mismatch", n)
		}
		progOK := core.VerifySafety(netgen.FullMeshProblem(prog), core.Options{}).OK()
		parsedOK := core.VerifySafety(netgen.FullMeshProblem(parsed), core.Options{}).OK()
		if !progOK || !parsedOK {
			t.Fatalf("n=%d: programmatic=%v parsed=%v, want both true", n, progOK, parsedOK)
		}
	}
}

// TestWANDSLRoundTrip: parsing the emitted WAN configuration must verify
// exactly like the programmatic network on every wan-peering and
// wan-ip-reuse problem, for the correct and all buggy variants. The two
// builders name route maps and split deny terms differently, so the
// comparison is per problem: its verdict and the locations of its failing
// checks, not the edges. Each network is verified on its own engine, so no
// verdict of one builder's network is served from the other's cache.
func TestWANDSLRoundTrip(t *testing.T) {
	p := netgen.DefaultWANParams()
	var suites []netgen.Suite
	for _, name := range []string{"wan-peering", "wan-ip-reuse"} {
		s, ok := netgen.Lookup(name)
		if !ok {
			t.Fatalf("%s suite not registered", name)
		}
		suites = append(suites, s)
	}
	sp := netgen.SuiteParams{Regions: p.Regions}
	// verdicts maps each problem name to its failing checks' descriptions
	// ("" when the problem verifies).
	verdicts := func(n *topology.Network) map[string]string {
		eng := engine.New(engine.Options{Workers: 2})
		defer eng.Close()
		jobs := map[string]*engine.Job{}
		for _, suite := range suites {
			for _, pr := range suite.Build(n, sp) {
				j, err := eng.Submit(context.Background(), engine.Workload{Safety: pr.Safety})
				if err != nil {
					t.Fatal(err)
				}
				jobs[pr.Name] = j
			}
		}
		out := make(map[string]string, len(jobs))
		for name, j := range jobs {
			var fails []string
			for _, f := range j.Wait().HardFailures() {
				fails = append(fails, f.Desc)
			}
			sort.Strings(fails)
			out[name] = strings.Join(fails, "\n")
		}
		return out
	}
	variants := map[string]netgen.WANBugs{
		"clean":                  {},
		"missing-bogon-filter":   {MissingBogonFilter: true},
		"wrong-region-community": {WrongRegionCommunity: true},
		"missing-local-pref":     {MissingLocalPref: true},
	}
	for name, bugs := range variants {
		parsed, err := config.Parse(netgen.WANDSL(p, bugs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := netgen.WAN(p, bugs)
		if parsed.NumEdges() != prog.NumEdges() {
			t.Fatalf("%s: edges %d vs %d", name, parsed.NumEdges(), prog.NumEdges())
		}
		want, got := verdicts(prog), verdicts(parsed)
		if len(want) == 0 || len(want) != len(got) {
			t.Fatalf("%s: %d programmatic vs %d parsed problems", name, len(want), len(got))
		}
		failing := 0
		for problem, w := range want {
			g, ok := got[problem]
			if !ok {
				t.Errorf("%s: %s missing from the parsed network's suites", name, problem)
				continue
			}
			if w != g {
				t.Errorf("%s: %s fails\n%q programmatically but\n%q parsed", name, problem, w, g)
			}
			if w != "" {
				failing++
			}
		}
		// Each planted bug must be visible to the suites, or agreeing
		// verdicts would prove nothing about it.
		if clean := bugs == (netgen.WANBugs{}); clean != (failing == 0) {
			t.Errorf("%s: %d of %d problems fail", name, failing, len(want))
		}
	}
}
