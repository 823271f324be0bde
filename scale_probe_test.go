package lightyear_test

import (
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
)

func TestLargeWANSingleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale measurement")
	}
	p := netgen.WANParams{Regions: 12, RoutersPerRegion: 10, EdgeRouters: 16, DCsPerRegion: 2, PeersPerEdge: 12}
	n := netgen.WAN(p, netgen.WANBugs{})
	prop := netgen.PeeringProperties(p.Regions)[0]
	t0 := time.Now()
	rep := core.VerifySafety(netgen.PeeringProblem(n, netgen.RegionRouter(0, 0), prop), core.Options{})
	t.Logf("routers=%d sessions=%d checks=%d ok=%v elapsed=%v", len(n.Routers()), n.NumEdges(), rep.NumChecks(), rep.OK(), time.Since(t0))
	if !rep.OK() {
		t.Fatal("must verify")
	}
}
