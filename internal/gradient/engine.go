package gradient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/transform"
)

// Config tunes the algorithm.
type Config struct {
	// Eta is the scale factor η of Γ (eq. 16). §6 uses 0.04 for the
	// headline experiment; larger values converge faster but may
	// oscillate. Zero or negative means 0.04.
	Eta float64
	// DisableBlocking turns the loop-freedom tagging protocol off.
	// Safe here because member subgraphs are DAGs; exists for the
	// ablation benches.
	DisableBlocking bool
	// Workers bounds the worker pool that runs the per-commodity §5
	// waves concurrently (the phases are independent across commodities,
	// mirroring the paper's distributed execution). Zero or negative
	// means GOMAXPROCS. Any value produces the same trajectory bit for
	// bit; Workers: 1 runs the waves inline.
	Workers int
	// Recorder, when non-nil, receives per-iteration events, metrics,
	// and per-phase wall-clock timings. Nil (the default) costs nothing
	// on the hot path.
	Recorder *obs.Recorder
}

func (c *Config) setDefaults() {
	if c.Eta <= 0 {
		c.Eta = 0.04
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Stats accumulates the distributed-protocol accounting across
// iterations: the paper's §6 comparison of per-iteration message
// exchanges (gradient needs O(L) sequential rounds per iteration,
// back-pressure O(1)).
type Stats struct {
	Iterations int
	// Messages counts protocol messages: one rho broadcast per member
	// edge in the marginal-cost wave plus one forecast message per
	// member edge in the flow-forecast wave, per commodity.
	Messages int
	// Rounds counts sequential message-exchange steps: per iteration
	// the deepest commodity DAG bounds the wave latency.
	Rounds int
}

// StepInfo reports the state measured at the start of an iteration
// (before the routing update), so a trace of StepInfo values is the
// utility-versus-iteration curve of Figure 4.
type StepInfo struct {
	Iteration int
	Utility   float64   // Σ_j U_j(a_j)
	Cost      float64   // A = Y + εD
	Admitted  []float64 // a_j per commodity
	Feasible  bool      // f_i ≤ C_i at every node
}

// Engine runs the gradient-based algorithm synchronously.
type Engine struct {
	X   *transform.Extended
	R   *flow.Routing
	cfg Config

	// Iteration workspaces, allocated once: the evaluated usage, the
	// spare routing Step swaps with R (double-buffering in place of the
	// old per-step Clone), and the per-commodity wave arena.
	u     *flow.Usage
	spare *flow.Routing
	arena *arena

	stats Stats
	iter  int
	// evaluated reports that u holds the evaluation of the current R
	// (set by Evaluate, cleared by Step).
	evaluated bool
}

// New prepares an engine from the paper-faithful initial routing
// (everything rejected; see flow.NewInitial).
func New(x *transform.Extended, cfg Config) *Engine {
	cfg.setDefaults()
	cfg.Recorder.SetEta(cfg.Eta)
	cfg.Recorder.SetWorkers(cfg.Workers)
	e := &Engine{X: x, R: flow.NewInitial(x), cfg: cfg}
	e.initWorkspace()
	return e
}

func (e *Engine) initWorkspace() {
	e.u = flow.NewUsage(e.X)
	e.spare = flow.NewZero(e.X)
	e.arena = newArena(e.X, e.cfg.Workers)
}

// NewFrom starts from an explicit routing set (used for warm starts in
// the dynamic-tracking experiment E7 and by the admission server). The
// routing is rebound to x, so a routing converged under old parameters
// (offered rates, capacities) is evaluated against the new ones; x must
// share the topology of the routing's original problem or NewFrom
// returns the rebind error. Callers that fall back to a cold start
// check errors.Is(err, flow.ErrTopologyChanged): true means the
// extended problem changed shape (commodities added/removed, network
// elements changed) and a cold start is the expected recovery; false
// means a real bug worth surfacing.
func NewFrom(x *transform.Extended, r *flow.Routing, cfg Config) (*Engine, error) {
	cfg.setDefaults()
	bound, err := r.Rebind(x)
	if err != nil {
		return nil, fmt.Errorf("gradient: warm start: %w", err)
	}
	cfg.Recorder.SetEta(cfg.Eta)
	cfg.Recorder.SetWorkers(cfg.Workers)
	e := &Engine{X: x, R: bound, cfg: cfg}
	e.initWorkspace()
	return e, nil
}

// Stats returns protocol accounting accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Routing exposes the current routing variables (not a copy). The
// engine double-buffers its routing, so the returned set is only valid
// until the next Step; callers that need a durable snapshot Clone it.
func (e *Engine) Routing() *flow.Routing { return e.R }

// Step executes one full iteration — forecast, then one fused
// marginal/tagging/update wave — and returns the pre-update
// measurements. The forecast is skipped when the engine already holds
// the evaluation of the current routing (a stationarity check or
// Evaluate since the last Step). All iteration state lives in
// workspaces allocated at construction, so the steady-state step
// performs no heap allocation beyond the returned Admitted slice.
func (e *Engine) Step() StepInfo {
	rec := e.cfg.Recorder
	tf := rec.StartPhase(obs.PhaseForecast)
	u := e.Evaluate()
	tf.Done()
	info := e.measure(u)

	next := e.spare
	tw := rec.StartPhase(obs.PhaseWave)
	msgs, maxRounds, iterTagged := e.arena.runWave(u, e.cfg.Eta, !e.cfg.DisableBlocking, next)
	tw.Done()
	e.spare, e.R = e.R, next
	e.evaluated = false
	// Forecast wave mirrors the marginal wave downstream: same message
	// count, same depth.
	iterMessages := 2 * msgs
	e.stats.Messages += iterMessages
	e.stats.Rounds += 2 * maxRounds
	e.stats.Iterations++
	e.iter++
	rec.Iteration("gradient", info.Iteration, info.Utility, info.Cost, info.Admitted, info.Feasible)
	rec.Protocol("gradient", info.Iteration, iterMessages, 2*maxRounds)
	rec.Blocking("gradient", info.Iteration, iterTagged)
	return info
}

func (e *Engine) measure(u *flow.Usage) StepInfo {
	admitted := make([]float64, e.X.NumCommodities())
	for j := range admitted {
		admitted[j] = u.AdmittedRate(j)
	}
	feasible, _ := u.Feasible()
	return StepInfo{
		Iteration: e.iter,
		Utility:   u.Utility(),
		Cost:      u.TotalCost(),
		Admitted:  admitted,
		Feasible:  feasible,
	}
}

// ErrDiverged is reported by Run when the iteration has genuinely
// diverged — η too large for the instance (§5's "danger of no
// convergence").
var ErrDiverged = errors.New("gradient: iteration diverged; reduce eta")

// DivergenceDetector distinguishes real divergence from the transient
// capacity overshoots the barrier recovers from. A single iteration
// with f_i ≥ C_i makes the cost +Inf, but the clamped barrier
// derivative (DESIGN.md §6) immediately pushes the flow back out;
// only a *sustained* non-finite cost, or NaN anywhere, is divergence.
type DivergenceDetector struct {
	nonFinite int
}

// nonFiniteLimit is how many consecutive +Inf-cost iterations count as
// divergence rather than a recoverable overshoot.
const nonFiniteLimit = 100

// Observe inspects one StepInfo and reports ErrDiverged when the
// trajectory is beyond recovery.
func (d *DivergenceDetector) Observe(info StepInfo) error {
	if math.IsNaN(info.Cost) || math.IsNaN(info.Utility) {
		return fmt.Errorf("%w: NaN at iteration %d", ErrDiverged, info.Iteration)
	}
	if math.IsInf(info.Cost, 0) {
		d.nonFinite++
		if d.nonFinite >= nonFiniteLimit {
			return fmt.Errorf("%w: cost non-finite for %d iterations (at %d)",
				ErrDiverged, d.nonFinite, info.Iteration)
		}
		return nil
	}
	d.nonFinite = 0
	return nil
}

// StopReason says why a Run ended. It is the solve's answer to "why
// did it stop?" and is published on server snapshots and iterate spans.
type StopReason string

const (
	// StopStationary: Theorem 2's necessary optimality condition held
	// within Policy.Tol at a periodic check.
	StopStationary StopReason = "stationary"
	// StopMaxIters: the iteration budget ran out.
	StopMaxIters StopReason = "max_iters"
	// StopDiverged: the DivergenceDetector declared the trajectory
	// beyond recovery.
	StopDiverged StopReason = "diverged"
	// StopDrained: the context was cancelled (shutdown drain).
	StopDrained StopReason = "drained"
	// StopCallback: the per-step callback asked to stop.
	StopCallback StopReason = "callback"
	// StopFailed: a step itself failed (the message-passing runtime's
	// wave did not quiesce); Outcome.Err holds the cause.
	StopFailed StopReason = "failed"
)

// defaultCheckEvery is the stationarity-check cadence when Policy
// leaves it zero.
const defaultCheckEvery = 25

// Policy bounds one Run.
type Policy struct {
	// MaxIters is the step budget of the run.
	MaxIters int
	// Tol is the Theorem-2 stationarity tolerance on
	// StationarityReport.MaxUsedGap; ≤ 0 disables the check.
	Tol float64
	// CheckEvery is the check cadence: the routing is tested after every
	// CheckEvery-th step of the run, never before the first step. ≤ 0
	// means 25.
	CheckEvery int
	// Detector carries divergence state across runs, for a solve that
	// spans several (the shard runner's exchange rounds); nil starts a
	// fresh detector.
	Detector *DivergenceDetector
}

// Outcome is how a Run ended.
type Outcome struct {
	Stop       StopReason
	Iterations int      // steps taken by this run
	Last       StepInfo // the final step's measurement (zero if none)
	Err        error    // the divergence or step failure, if any
}

// Drive is the one synchronous step loop every gradient solve runs
// through: step until the context is cancelled, the budget runs out,
// the trajectory diverges, the periodic Theorem-2 check passes, or the
// optional per-step callback returns true. The callback sees every step
// the divergence detector accepted. step advances one iteration; gap
// returns the current routing's StationarityReport.MaxUsedGap for the
// stationarity check. Drive keeps no trace — callers that want one
// collect it in each.
func Drive(ctx context.Context, step func() (StepInfo, error), gap func() float64, p Policy, each func(StepInfo) bool) Outcome {
	det := p.Detector
	if det == nil {
		det = &DivergenceDetector{}
	}
	every := p.CheckEvery
	if every <= 0 {
		every = defaultCheckEvery
	}
	var out Outcome
	for out.Iterations < p.MaxIters {
		if ctx.Err() != nil {
			out.Stop = StopDrained
			return out
		}
		info, err := step()
		if err != nil {
			out.Stop, out.Err = StopFailed, err
			return out
		}
		out.Iterations++
		out.Last = info
		if err := det.Observe(info); err != nil {
			out.Stop, out.Err = StopDiverged, err
			return out
		}
		if each != nil && each(info) {
			out.Stop = StopCallback
			return out
		}
		if p.Tol > 0 && out.Iterations%every == 0 && gap() <= p.Tol {
			out.Stop = StopStationary
			return out
		}
	}
	out.Stop = StopMaxIters
	return out
}

// Run drives the engine through Drive, checking stationarity with
// MaxUsedGap.
func (e *Engine) Run(ctx context.Context, p Policy, each func(StepInfo) bool) Outcome {
	return Drive(ctx, e.step, e.MaxUsedGap, p, each)
}

// MaxUsedGap is CheckStationarity(e.Evaluate()).MaxUsedGap, bit for bit,
// computed on the engine's own wave workspaces without allocating. The
// evaluation it makes is kept, so the next Step skips its forecast.
// Prices are recomputed on every call, so the gap reflects the
// External usage installed at the time of the call.
func (e *Engine) MaxUsedGap() float64 {
	return e.arena.maxUsedGap(e.Evaluate())
}

func (e *Engine) step() (StepInfo, error) { return e.Step(), nil }

// Evaluate evaluates the current routing into the engine's workspace
// and returns it. The result is bit-identical to Solution's but
// allocates nothing, and is only valid until the next Step.
func (e *Engine) Evaluate() *flow.Usage {
	if !e.evaluated {
		flow.EvaluateInto(e.u, e.R)
		e.evaluated = true
	}
	return e.u
}

// Solution evaluates the current routing set.
func (e *Engine) Solution() *flow.Usage { return flow.Evaluate(e.R) }
