// Package gradient implements the paper's §5 distributed algorithm for
// joint routing optimization and resource allocation, generalizing
// Gallager's minimum-delay routing (ref. [10]) to stream processing
// with shrinkage factors and per-node resource penalties.
//
// Each iteration performs the three protocol phases of §5 on a
// synchronous schedule:
//
//  1. flow forecast: solve the flow-balance equations under the current
//     routing set (internal/flow.Evaluate);
//  2. marginal-cost wave: compute ∂A/∂r_i(j) from the sinks upstream
//     (eq. 9) together with the per-link marginals of eq. 10/13 and
//     the loop-freedom tags of eq. 18;
//  3. routing update Γ: shift routing fraction from expensive links to
//     each node's best unblocked link (eqs. 14–17).
//
// Every node's congestion price is computed once per iteration, after
// the forecast, and phases 2 and 3 run fused as one reverse-topological
// pass per commodity (arena.go; DESIGN.md §6).
//
// All per-commodity state is held in the commodity's Subgraph local
// indexing (transform.Subgraph), so one commodity's wave costs O(its
// member edges) in both time and memory.
//
// The synchronous engine is deterministic and exactly equivalent to
// the message-passing execution in internal/dist (tests in that
// package assert trajectory equality); it also accounts for the
// messages and rounds the distributed protocol would need, supporting
// the paper's O(L)-vs-O(1) message-cost discussion in §6.
package gradient

import (
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/transform"
)

// Marginals holds the first-order information of one iteration for one
// commodity, indexed by the commodity's Subgraph local node/edge
// indexes.
type Marginals struct {
	// Rho[ln] is ∂A/∂r_n(j): the marginal cost of injecting one more
	// unit of commodity-j traffic at member node ln (eq. 9); zero at
	// the sink.
	Rho []float64
	// LinkD[le] is the per-link marginal of eqs. (10) and (13):
	// ∂A_i/∂f_e·c_e(j) + β_e(j)·Rho[head(e)], per member edge.
	LinkD []float64
	// Rounds is the number of sequential message-exchange steps the
	// upstream wave needs: the depth of the member DAG below each node,
	// maximized — the L in the paper's O(L) analysis.
	Rounds int
	// Messages counts the rho broadcasts the wave sends (one per member
	// edge, tail <- head).
	Messages int
}

// ComputeMarginals runs the marginal-cost wave for commodity j on the
// evaluated usage u. Nodes are processed in reverse topological order
// of the member DAG, which is exactly the order in which the
// distributed protocol's "wait for all downstream values" rule fires.
// It allocates fresh buffers and prices each member node as the wave
// reaches it; the engine runs the same per-node step (Marginals.node)
// inside its fused wave against a per-step price vector (arena.go), so
// the two agree bit for bit.
func ComputeMarginals(u *flow.Usage, j int) *Marginals {
	sg := &u.R.X.Sub[j]
	m := &Marginals{
		Rho:   make([]float64, sg.NumNodes()),
		LinkD: make([]float64, sg.NumEdges()),
	}
	m.wave(u, j, make([]int, sg.NumNodes()))
	return m
}

// wave runs commodity j's marginal-cost wave into m, whose Rho and
// LinkD (like the depth scratch) need capacity for the commodity's
// member nodes and edges and are resliced to them. Every entry the
// wave defines is written, so buffers may be reused across commodities
// without clearing.
func (m *Marginals) wave(u *flow.Usage, j int, depth []int) {
	x := u.R.X
	sg := &x.Sub[j]
	nn := sg.NumNodes()
	m.Rho, m.LinkD, depth = m.Rho[:nn], m.LinkD[:sg.NumEdges()], depth[:nn]
	m.Rho[sg.Sink], depth[sg.Sink] = 0, 0 // convention ∂A/∂r_j(j) = 0
	m.Rounds, m.Messages = 0, 0
	phi, loss := u.R.Phi[j], diffLinkLoss(u, j)
	for _, ln := range sg.RevTopo() {
		if ln == sg.Sink {
			continue
		}
		n := sg.Nodes[ln]
		m.node(sg, phi, depth, ln, sg.Out(ln), x.PenaltyDeriv(n, u.FNode[n]), loss)
	}
}

// node is one step of the upstream wave at non-sink member node ln
// with out-links outs, run once every head's ρ is final (reverse
// topological order): it fills LinkD for the out-links, sets
// ρ_ln = Σ_e φ_e·LinkD_e and ln's wave depth, and counts one ρ message
// per out-link. price is the barrier derivative ε·D'_i(f_i) at ln's
// extended node; on the difference link ∂A_i/∂f_e also carries loss,
// the utility-loss derivative (eq. 11).
func (m *Marginals) node(sg *transform.Subgraph, phi []float64, depth []int, ln int32, outs []int32, price, loss float64) {
	var (
		rho    float64
		rounds int
	)
	for _, le := range outs {
		head := sg.Head[le]
		var l float64
		if le == sg.DiffLink {
			l = loss
		}
		d := (price+l)*sg.Cost[le] + sg.Beta[le]*m.Rho[head]
		m.LinkD[le] = d
		rho += phi[le] * d
		m.Messages++ // head broadcasts rho to this tail
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

// RhoAt reads Rho by extended node ID (zero for non-member nodes).
// O(log member nodes); diagnostics and tests only — hot loops index the
// local arrays directly.
func (m *Marginals) RhoAt(sg *transform.Subgraph, n graph.NodeID) float64 {
	if ln := sg.LocalNode(n); ln >= 0 {
		return m.Rho[ln]
	}
	return 0
}

// LinkDAt reads LinkD by extended edge ID (zero for non-member edges).
func (m *Marginals) LinkDAt(sg *transform.Subgraph, e graph.EdgeID) float64 {
	if le := sg.LocalEdge(e); le >= 0 {
		return m.LinkD[le]
	}
	return 0
}

// diffLinkLoss is U'_j(λ_j − f_e), the utility-loss derivative on
// commodity j's difference link e.
func diffLinkLoss(u *flow.Usage, j int) float64 {
	x := u.R.X
	return x.LossDeriv(j, x.Commodities[j].DiffLink, u.FEdge[j][x.Sub[j].DiffLink])
}
