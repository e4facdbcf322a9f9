package gradient

import (
	"testing"

	"repro/internal/flow"
)

func TestStationarityImprovesWithConvergence(t *testing.T) {
	x := randomExtended(t, 29)
	eng := NewAdaptive(x, AdaptiveConfig{})

	runAdaptive(eng, 50)
	early := CheckStationarity(flow.Evaluate(eng.Routing()))
	runAdaptive(eng, 8000)
	late := CheckStationarity(flow.Evaluate(eng.Routing()))

	if late.MaxUsedGap >= early.MaxUsedGap {
		t.Fatalf("stationarity residual did not shrink: %g -> %g",
			early.MaxUsedGap, late.MaxUsedGap)
	}
	if late.MaxUsedGap > 0.2 {
		t.Fatalf("residual %g after 8050 iterations; not near-stationary", late.MaxUsedGap)
	}
}

func TestStationarityLocatesWorstNode(t *testing.T) {
	x := randomExtended(t, 31)
	eng := New(x, Config{Eta: 0.04})
	for i := 0; i < 30; i++ {
		eng.Step()
	}
	rep := CheckStationarity(flow.Evaluate(eng.Routing()))
	if rep.MaxUsedGap > 0 {
		if rep.WorstNode < 0 || rep.WorstCommodity < 0 {
			t.Fatalf("gap %g reported with no location", rep.MaxUsedGap)
		}
	}
}

func TestStationarityZeroGapAtFixedPoint(t *testing.T) {
	// A trivially optimal configuration: single path with enormous
	// capacity, fully converged — both residuals near zero.
	x := singlePath(t, 1e6, 1e6, 5)
	eng := New(x, Config{Eta: 1})
	if _, err := runTrace(eng, 4000); err != nil {
		t.Fatal(err)
	}
	rep := CheckStationarity(flow.Evaluate(eng.Routing()))
	if rep.MaxUsedGap > 1e-3 {
		t.Fatalf("used-link gap %g at the fixed point", rep.MaxUsedGap)
	}
	if rep.MaxSufficientViolation > 1e-3 {
		t.Fatalf("sufficient-condition violation %g at the fixed point", rep.MaxSufficientViolation)
	}
}
