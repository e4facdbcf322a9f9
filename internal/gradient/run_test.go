package gradient

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/flow"
)

// TestRunMatchesStepLoop: driving an engine through Run with no early
// stopping reproduces a bare Step loop bit for bit, and Evaluate agrees
// with a freshly allocated evaluation.
func TestRunMatchesStepLoop(t *testing.T) {
	x := randomExtended(t, 29)
	a := New(x, Config{Eta: 0.04, Workers: 1})
	b := New(x, Config{Eta: 0.04, Workers: 1})
	out := a.Run(context.Background(), Policy{MaxIters: 200}, nil)
	for i := 0; i < 200; i++ {
		b.Step()
	}
	if out.Stop != StopMaxIters || out.Iterations != 200 || out.Last.Iteration != 199 {
		t.Fatalf("outcome = %+v, want max_iters after 200 steps", out)
	}
	for j := range a.R.Phi {
		for le, v := range a.R.Phi[j] {
			if math.Float64bits(v) != math.Float64bits(b.R.Phi[j][le]) {
				t.Fatalf("commodity %d local edge %d: Run %v, Step loop %v", j, le, v, b.R.Phi[j][le])
			}
		}
	}
	got, want := a.Evaluate().Utility(), flow.Evaluate(a.Routing()).Utility()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Evaluate utility %v, fresh evaluation %v", got, want)
	}
}

// TestRunChecksAfterFullPeriods: the stationarity check runs after
// every CheckEvery-th step and never before the first, so even a loose
// tolerance that any routing meets takes one full period; a run that
// ends between checks is not checked.
func TestRunChecksAfterFullPeriods(t *testing.T) {
	x := singlePath(t, 10, 40, 20)
	eng := New(x, Config{Eta: 0.04})
	out := eng.Run(context.Background(), Policy{MaxIters: 100, Tol: 1e9, CheckEvery: 7}, nil)
	if out.Stop != StopStationary || out.Iterations != 7 {
		t.Fatalf("outcome = %+v, want stationary after 7 steps", out)
	}
	out = eng.Run(context.Background(), Policy{MaxIters: 6, Tol: 1e9, CheckEvery: 7}, nil)
	if out.Stop != StopMaxIters || out.Iterations != 6 {
		t.Fatalf("outcome = %+v, want max_iters after 6 unchecked steps", out)
	}
}

func TestRunDrainsAndCallsBack(t *testing.T) {
	x := singlePath(t, 10, 40, 20)
	eng := New(x, Config{Eta: 0.04})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := eng.Run(ctx, Policy{MaxIters: 10}, nil); out.Stop != StopDrained || out.Iterations != 0 {
		t.Fatalf("cancelled run = %+v, want drained with no steps", out)
	}
	seen := 0
	out := eng.Run(context.Background(), Policy{MaxIters: 10}, func(info StepInfo) bool {
		seen++
		return seen == 4
	})
	if out.Stop != StopCallback || out.Iterations != 4 || out.Last.Iteration != 3 {
		t.Fatalf("callback run = %+v, want callback stop after 4 steps", out)
	}
}

// TestDriveDivergenceAcrossRuns: a shared Detector carries the
// non-finite streak across runs, and the callback never sees the
// diverging step.
func TestDriveDivergenceAcrossRuns(t *testing.T) {
	inf := func() (StepInfo, error) { return StepInfo{Cost: math.Inf(1)}, nil }
	var det DivergenceDetector
	p := Policy{MaxIters: nonFiniteLimit / 2, Detector: &det}
	if out := Drive(context.Background(), inf, nil, p, nil); out.Stop != StopMaxIters {
		t.Fatalf("first half = %+v, want max_iters", out)
	}
	p.MaxIters = nonFiniteLimit
	calls := 0
	out := Drive(context.Background(), inf, nil, p, func(StepInfo) bool { calls++; return false })
	if out.Stop != StopDiverged || !errors.Is(out.Err, ErrDiverged) {
		t.Fatalf("second half = %+v, want diverged", out)
	}
	if want := nonFiniteLimit - nonFiniteLimit/2; out.Iterations != want || calls != want-1 {
		t.Fatalf("diverged after %d steps with %d callbacks, want %d and %d", out.Iterations, calls, want, want-1)
	}

	boom := errors.New("wave did not quiesce")
	fail := func() (StepInfo, error) { return StepInfo{}, boom }
	if out := Drive(context.Background(), fail, nil, Policy{MaxIters: 5}, nil); out.Stop != StopFailed || out.Err != boom {
		t.Fatalf("failing step = %+v, want failed", out)
	}
}
