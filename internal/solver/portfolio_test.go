package solver

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
)

// symbolicObligation returns a real (non-concrete) obligation to race.
func symbolicObligation(t *testing.T) *core.Obligation {
	t.Helper()
	p := netgen.Fig1NoTransitProblem(netgen.Fig1(netgen.Fig1Options{}))
	for _, c := range p.Checks(core.Options{}) {
		if ob := c.Obligation(); !ob.Concrete() {
			return ob
		}
	}
	t.Fatal("no symbolic obligation in fig1 problem")
	return nil
}

// TestPortfolioCancelsLosers: when one variant decides, the losing variants
// must observe context cancellation — and all variant goroutines must have
// returned before Solve does.
func TestPortfolioCancelsLosers(t *testing.T) {
	ob := symbolicObligation(t)
	p := newPortfolio(0, []Variant{{Name: "fast"}, {Name: "slow-a"}, {Name: "slow-b"}})

	var cancelled atomic.Int32
	p.solve = func(ctx context.Context, _ *core.Obligation, cfg core.SolveConfig) core.CheckResult {
		if cfg.Backend == "portfolio/fast" {
			return core.CheckResult{OK: true, Status: core.StatusOK, Backend: cfg.Backend}
		}
		// Losers block until the race cancels them, like a SAT solve whose
		// interrupt flag flips mid-search.
		<-ctx.Done()
		cancelled.Add(1)
		return core.CheckResult{Status: core.StatusUnknown, Backend: cfg.Backend}
	}

	out := p.Solve(context.Background(), ob, Budget{})
	if out.Status != core.StatusOK || out.Backend != "portfolio/fast" {
		t.Fatalf("winner = %v/%s, want ok/portfolio/fast", out.Status, out.Backend)
	}
	if out.Raced != 3 {
		t.Fatalf("Raced = %d, want 3", out.Raced)
	}
	// Solve waits for every variant, so both losers have already counted.
	if got := cancelled.Load(); got != 2 {
		t.Fatalf("%d losers observed cancellation, want 2", got)
	}
}

// TestPortfolioAllUnknown: when every variant exhausts its budget the
// portfolio reports Unknown rather than hanging or inventing a verdict.
func TestPortfolioAllUnknown(t *testing.T) {
	ob := symbolicObligation(t)
	p := newPortfolio(0, []Variant{{Name: "a"}, {Name: "b"}})
	p.solve = func(_ context.Context, _ *core.Obligation, cfg core.SolveConfig) core.CheckResult {
		return core.CheckResult{Status: core.StatusUnknown, Backend: cfg.Backend}
	}
	out := p.Solve(context.Background(), ob, Budget{})
	if out.Status != core.StatusUnknown || out.Raced != 2 {
		t.Fatalf("outcome = %v raced=%d, want unknown raced=2", out.Status, out.Raced)
	}
}

// TestPortfolioParentCancellation: cancelling the caller's context stops the
// whole race; the blocked variants unwind and Solve returns Unknown.
func TestPortfolioParentCancellation(t *testing.T) {
	ob := symbolicObligation(t)
	p := newPortfolio(0, []Variant{{Name: "a"}, {Name: "b"}})
	p.solve = func(ctx context.Context, _ *core.Obligation, cfg core.SolveConfig) core.CheckResult {
		<-ctx.Done()
		return core.CheckResult{Status: core.StatusUnknown, Backend: cfg.Backend}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Outcome, 1)
	go func() { done <- p.Solve(ctx, ob, Budget{}) }()
	cancel()
	select {
	case out := <-done:
		if out.Status != core.StatusUnknown {
			t.Fatalf("cancelled race returned %v, want unknown", out.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("portfolio did not unwind after parent cancellation")
	}
}

// TestPortfolioRealRace: the production solve path (no seam) decides a real
// obligation with all default variants under the race detector.
func TestPortfolioRealRace(t *testing.T) {
	ob := symbolicObligation(t)
	out := Portfolio(0).Solve(context.Background(), ob, Budget{})
	if out.Status == core.StatusUnknown {
		t.Fatalf("portfolio left a decidable obligation unknown")
	}
	if out.Raced != len(DefaultVariants()) {
		t.Fatalf("Raced = %d, want %d", out.Raced, len(DefaultVariants()))
	}
}

// pigeonholeObligation returns the search-heavy implication check of the
// PHP(holes+1, holes) stress problem on the default WAN — the obligation the
// sat-pigeonhole workload's tail solves.
func pigeonholeObligation(t *testing.T, holes int) *core.Obligation {
	t.Helper()
	n := netgen.WAN(netgen.DefaultWANParams(), netgen.WANBugs{})
	p := netgen.StressProblemAt(n, n.Routers()[0], holes)
	for _, c := range p.Checks(core.Options{}) {
		if ob := c.Obligation(); ob.Kind == core.ImplicationCheck && !ob.Concrete() {
			return ob
		}
	}
	t.Fatal("no implication obligation in the stress problem")
	return nil
}

// TestPortfolioPigeonholeWin pins the portfolio's reason to exist: on the
// PHP(8,7) refutation some default variant needs at most a fifth of the
// stock (vsids) variant's conflicts, so racing them beats a native solve.
// Conflict counts are deterministic, unlike wall time. If this fails, the
// variants no longer diverge on hard instances and the backend should go.
func TestPortfolioPigeonholeWin(t *testing.T) {
	ob := pigeonholeObligation(t, 7)
	p := newPortfolio(0, DefaultVariants())
	conflicts := map[string]int64{}
	fewest := "vsids"
	for _, v := range p.variants {
		r := ob.Solve(context.Background(), p.config(v, Budget{}))
		if r.Status != core.StatusOK {
			t.Fatalf("variant %s: status %v, want ok", v.Name, r.Status)
		}
		conflicts[v.Name] = r.Solver.Conflicts
		if r.Solver.Conflicts < conflicts[fewest] {
			fewest = v.Name
		}
	}
	t.Logf("conflicts per variant: %v", conflicts)
	if stock := conflicts["vsids"]; stock == 0 || 5*conflicts[fewest] > stock {
		t.Fatalf("fewest conflicts %s=%d, want at most 1/5 of vsids=%d", fewest, conflicts[fewest], stock)
	}
	if out := Portfolio(0).Solve(context.Background(), ob, Budget{}); out.Status != core.StatusOK {
		t.Fatalf("portfolio decided %v, want ok", out.Status)
	}
}

// TestSolveCancelledContextIsUnknown: an already-cancelled context yields
// StatusUnknown deterministically (the solve is skipped entirely).
func TestSolveCancelledContextIsUnknown(t *testing.T) {
	ob := symbolicObligation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := ob.Solve(ctx, core.SolveConfig{})
	if r.Status != core.StatusUnknown || r.OK {
		t.Fatalf("cancelled solve = %+v, want unknown", r.Status)
	}
}
