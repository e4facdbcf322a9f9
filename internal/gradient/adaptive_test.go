package gradient

import (
	"context"
	"math"
	"testing"

	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/transform"
)

func TestAdaptiveCostMonotone(t *testing.T) {
	// The accept/reject rule makes the cost non-increasing by
	// construction; verify over a real trajectory.
	x := randomExtended(t, 13)
	e := NewAdaptive(x, AdaptiveConfig{})
	prev := math.Inf(1)
	for i := 0; i < 800; i++ {
		info := e.Step()
		if info.Cost > prev+1e-9 {
			t.Fatalf("iteration %d: cost rose %g -> %g", i, prev, info.Cost)
		}
		prev = info.Cost
	}
}

func TestAdaptiveSurvivesHostileInitialEta(t *testing.T) {
	// A wildly too-large initial η must be tamed by backtracking and
	// still converge near the fixed-η optimum.
	x := randomExtended(t, 17)
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewAdaptive(x, AdaptiveConfig{InitialEta: 50})
	last := runAdaptive(e, 6000)
	if e.Backtracks == 0 {
		t.Fatal("hostile eta never backtracked")
	}
	if e.Eta() >= 50 {
		t.Fatalf("eta did not shrink: %g", e.Eta())
	}
	if last.Utility < 0.80*ref.Utility {
		t.Fatalf("adaptive converged to %g, reference %g", last.Utility, ref.Utility)
	}
	if !last.Feasible {
		t.Fatal("adaptive final point infeasible")
	}
}

func TestAdaptiveMatchesFixedEtaQuality(t *testing.T) {
	// On the E5-style steep instance a fixed η = 0.04 limit-cycles; the
	// adaptive engine must do at least as well as the well-tuned fixed
	// step.
	x := randomExtended(t, 23)
	fixed := New(x, Config{Eta: 0.01})
	traceFixed, err := runTrace(fixed, 4000)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := NewAdaptive(x, AdaptiveConfig{})
	lastAdaptive := runAdaptive(adaptive, 4000)
	fixedU := traceFixed[len(traceFixed)-1].Utility
	if lastAdaptive.Utility < 0.95*fixedU {
		t.Fatalf("adaptive %g well below tuned fixed %g", lastAdaptive.Utility, fixedU)
	}
}

func TestAdaptiveEtaGrowsOnEasyInstance(t *testing.T) {
	// Plenty of capacity and a tiny starting step: the controller must
	// grow η (descents accumulate) rather than stay at the floor.
	p, err := randnet.Generate(randnet.Config{
		Seed: 5, Nodes: 12, Commodities: 2, Layers: 3,
		CapMin: 500, CapMax: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewAdaptive(x, AdaptiveConfig{InitialEta: 0.001})
	runAdaptive(e, 2000)
	if e.Eta() <= 0.001 {
		t.Fatalf("eta never grew: %g", e.Eta())
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	cfg := AdaptiveConfig{}
	cfg.setDefaults()
	if cfg.InitialEta != 0.04 || cfg.Shrink != 0.5 || cfg.Grow != 1.05 || cfg.GrowAfter != 20 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	// Degenerate values fall back too.
	cfg = AdaptiveConfig{Shrink: 2, Grow: 0.5}
	cfg.setDefaults()
	if cfg.Shrink != 0.5 || cfg.Grow != 1.05 {
		t.Fatalf("degenerate values not corrected: %+v", cfg)
	}
}

// runAdaptive runs n adaptive steps through Run and returns the last
// step's measurement.
func runAdaptive(e *AdaptiveEngine, n int) StepInfo {
	return e.Run(context.Background(), Policy{MaxIters: n}, nil).Last
}
