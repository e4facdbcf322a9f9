package gradient

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
)

// The reference below is the §5 iteration as three sequential waves
// per commodity — marginal costs (pricing every member edge's tail on
// the spot), then tags, then Γ — each a separate sweep over the member
// DAG, with a cloned routing as the update target. The engine fuses the
// three into one reverse-topological pass against a per-step price
// vector; TestFusedWaveMatchesReference pins the two together bit for
// bit.

// refMarginals is the stand-alone marginal-cost wave.
func refMarginals(u *flow.Usage, j int) *Marginals {
	x := u.R.X
	sg := &x.Sub[j]
	m := &Marginals{Rho: make([]float64, sg.NumNodes()), LinkD: make([]float64, sg.NumEdges())}
	depth := make([]int, sg.NumNodes())
	phi := u.R.Phi[j]
	for _, ln := range sg.RevTopo() {
		if ln == sg.Sink {
			continue
		}
		var (
			rho    float64
			rounds int
		)
		n := sg.Nodes[ln]
		for _, le := range sg.Out(ln) {
			head := sg.Head[le]
			var loss float64
			if le == sg.DiffLink {
				loss = x.LossDeriv(j, x.Commodities[j].DiffLink, u.FEdge[j][le])
			}
			dAdf := x.PenaltyDeriv(n, u.FNode[n]) + loss
			d := dAdf*sg.Cost[le] + sg.Beta[le]*m.Rho[head]
			m.LinkD[le] = d
			rho += phi[le] * d
			m.Messages++
			if depth[head]+1 > rounds {
				rounds = depth[head] + 1
			}
		}
		m.Rho[ln] = rho
		depth[ln] = rounds
		if rounds > m.Rounds {
			m.Rounds = rounds
		}
	}
	return m
}

// refTags is the stand-alone tagging wave.
func refTags(u *flow.Usage, j int, m *Marginals, eta float64) []bool {
	sg := &u.R.X.Sub[j]
	tagged := make([]bool, sg.NumNodes())
	phi := u.R.Phi[j]
	for _, l := range sg.RevTopo() {
		if l == sg.Sink {
			continue
		}
		t := u.T[j][l]
		for _, le := range sg.Out(l) {
			if phi[le] <= 0 {
				continue
			}
			head := sg.Head[le]
			if tagged[head] {
				tagged[l] = true
				break
			}
			if m.Rho[l] > sg.Beta[le]*m.Rho[head] || t == 0 {
				continue
			}
			if phi[le] >= eta/t*(m.LinkD[le]-m.Rho[l]) {
				tagged[l] = true
				break
			}
		}
	}
	return tagged
}

// refGamma is the stand-alone routing update, swept in topological
// order.
func refGamma(u *flow.Usage, j int, m *Marginals, tagged []bool, eta float64, next *flow.Routing) {
	sg := &u.R.X.Sub[j]
	phi := u.R.Phi[j]
	isBlocked := func(le int32) bool { return tagged != nil && phi[le] == 0 && tagged[sg.Head[le]] }
	for _, ln := range sg.Topo {
		if ln == sg.Sink {
			continue
		}
		best, bestD := int32(-1), math.Inf(1)
		for _, le := range sg.Out(ln) {
			if !isBlocked(le) && m.LinkD[le] < bestD {
				best, bestD = le, m.LinkD[le]
			}
		}
		if best < 0 {
			continue
		}
		t := u.T[j][ln]
		moved := 0.0
		for _, le := range sg.Out(ln) {
			if le == best {
				continue
			}
			if isBlocked(le) {
				next.Phi[j][le] = 0
				continue
			}
			delta := phi[le]
			if t > 0 {
				delta = math.Min(phi[le], eta*(m.LinkD[le]-bestD)/t)
			}
			next.Phi[j][le] = phi[le] - delta
			moved += delta
		}
		next.Phi[j][best] = phi[best] + moved
	}
}

// refStep is one reference iteration from routing r.
type refStep struct {
	next     *flow.Routing
	info     StepInfo
	tags     [][]bool // per commodity; nil without blocking
	messages int
	rounds   int
}

func runRefStep(r *flow.Routing, eta float64, blocking bool, iter int) refStep {
	x := r.X
	u := flow.Evaluate(r)
	info := StepInfo{Iteration: iter, Utility: u.Utility(), Cost: u.TotalCost(),
		Admitted: make([]float64, x.NumCommodities())}
	for j := range info.Admitted {
		info.Admitted[j] = u.AdmittedRate(j)
	}
	info.Feasible, _ = u.Feasible()
	st := refStep{next: r.Clone(), info: info, tags: make([][]bool, x.NumCommodities())}
	for j := range x.Commodities {
		m := refMarginals(u, j)
		if blocking {
			st.tags[j] = refTags(u, j, m, eta)
		}
		refGamma(u, j, m, st.tags[j], eta, st.next)
		st.messages += m.Messages
		st.rounds = max(st.rounds, m.Rounds)
	}
	return st
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFusedWaveMatchesReference: the engine's one-pass wave reproduces
// the three-wave reference bit for bit — every routing variable, every
// StepInfo field, every tag and the protocol accounting — on dense and sparse
// instances, with blocking on and off, for one and four workers, and
// with an External usage vector that changes between steps (as a shard
// coordinator rewrites it between runs). At every step the engine's
// allocation-free check gap also equals CheckStationarity's exactly,
// and ComputeMarginals equals the reference wave.
func TestFusedWaveMatchesReference(t *testing.T) {
	dense, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 60})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 60
	for _, inst := range []struct {
		name string
		p    *stream.Problem
		eta  float64
	}{{"dense", dense, 0.04}, {"sparse", sparse, 0.005}} {
		for _, blocking := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				for _, external := range []bool{false, true} {
					name := fmt.Sprintf("%s/blocking=%v/workers=%d/external=%v", inst.name, blocking, workers, external)
					t.Run(name, func(t *testing.T) {
						x, err := transform.Build(inst.p, transform.Options{})
						if err != nil {
							t.Fatal(err)
						}
						var ext []float64
						if external {
							ext = make([]float64, x.SharedNodes)
							x.SetExternal(ext)
						}
						eng := New(x, Config{Eta: inst.eta, DisableBlocking: !blocking, Workers: workers})
						ref := flow.NewInitial(x)
						var refMsgs, refRounds int
						for i := 0; i < steps; i++ {
							for n := range ext {
								if c := x.Capacity[n]; !math.IsInf(c, 1) {
									ext[n] = c * 0.05 * float64(1+(i+n)%5)
								}
							}
							u := flow.Evaluate(ref)
							if got, want := eng.MaxUsedGap(), CheckStationarity(u).MaxUsedGap; !sameBits(got, want) {
								t.Fatalf("step %d: engine gap %v, CheckStationarity %v", i, got, want)
							}
							for j := range x.Commodities {
								got, want := ComputeMarginals(u, j), refMarginals(u, j)
								for ln, w := range want.Rho {
									if !sameBits(got.Rho[ln], w) {
										t.Fatalf("step %d: commodity %d rho[%d] = %v, reference %v", i, j, ln, got.Rho[ln], w)
									}
								}
								for le, w := range want.LinkD {
									if !sameBits(got.LinkD[le], w) {
										t.Fatalf("step %d: commodity %d linkD[%d] = %v, reference %v", i, j, le, got.LinkD[le], w)
									}
								}
							}
							got := eng.Step()
							want := runRefStep(ref, inst.eta, blocking, i)
							ref = want.next
							refMsgs += 2 * want.messages
							refRounds += 2 * want.rounds
							assertTraceBitwiseEqual(t, []StepInfo{got}, []StepInfo{want.info}, fmt.Sprintf("step %d", i))
							for j, tags := range want.tags {
								for ln, tag := range tags {
									if eng.arena.ws[j].tagged[ln] != tag {
										t.Fatalf("step %d: commodity %d node %d tagged %v, reference %v",
											i, j, ln, !tag, tag)
									}
								}
							}
							for j := range ref.Phi {
								for le, w := range ref.Phi[j] {
									if g := eng.Routing().Phi[j][le]; !sameBits(g, w) {
										t.Fatalf("step %d: phi[%d][%d] = %v, reference %v", i, j, le, g, w)
									}
								}
							}
						}
						if st := eng.Stats(); st.Messages != refMsgs || st.Rounds != refRounds {
							t.Fatalf("stats %+v, reference messages %d rounds %d", st, refMsgs, refRounds)
						}
					})
				}
			}
		}
	}
}

// TestRunAllocatesOnlyAdmitted pins the engine-owned stationarity
// check: a Run with the check on, across two check periods, allocates
// exactly one StepInfo.Admitted slice per step and nothing per check.
func TestRunAllocatesOnlyAdmitted(t *testing.T) {
	x := buildInstance(t, randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	e := New(x, Config{Workers: 1})
	const every = 10
	p := Policy{MaxIters: 2 * every, Tol: math.SmallestNonzeroFloat64, CheckEvery: every}
	ctx := context.Background()
	var out Outcome
	allocs := testing.AllocsPerRun(5, func() { out = e.Run(ctx, p, nil) })
	if out.Stop != StopMaxIters || out.Iterations != p.MaxIters {
		t.Fatalf("run = %+v, want %d steps to max_iters", out, p.MaxIters)
	}
	if allocs != float64(p.MaxIters) {
		t.Fatalf("Run allocates %v objects, want %d (one Admitted per step)", allocs, p.MaxIters)
	}
}

// TestPhaseTimedOncePerStep: with a Recorder attached, every timed
// phase gets exactly one sample per Step, however many commodities the
// wave sweeps.
func TestPhaseTimedOncePerStep(t *testing.T) {
	x := buildInstance(t, randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	rec := obs.NewRecorder(nil, nil)
	e := New(x, Config{Workers: 1, Recorder: rec})
	const steps = 7
	for i := 0; i < steps; i++ {
		e.Step()
	}
	for p := obs.Phase(0); p < obs.Phase(obs.NumPhases); p++ {
		h := rec.Registry().Histogram("streamopt_step_phase_seconds", "", obs.DefaultTimeBuckets, "phase", p.String())
		if h.Count() != steps {
			t.Errorf("phase %s: %d samples over %d steps, want one per step", p, h.Count(), steps)
		}
	}
}
