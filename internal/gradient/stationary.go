package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/graph"
)

// StationarityReport quantifies how far a routing set is from
// satisfying Theorem 2's optimality conditions, as a convergence
// diagnostic: at an optimal routing every used link's marginal equals
// the node's minimum marginal (eq. 12), and every link — used or not —
// satisfies the sufficient condition d_e ≥ ρ_i (eq. 13).
type StationarityReport struct {
	// MaxUsedGap is the largest (d_e − min_d)/(1+min_d) over links with
	// φ_e > MinPhi at nodes with t_i > MinTraffic: the necessary
	// condition's residual. Zero at a stationary point.
	MaxUsedGap float64
	// MaxSufficientViolation is the largest (ρ_i − d_e)/(1+ρ_i) over
	// ALL member links at traffic-carrying nodes: positive values mean
	// eq. 13 fails somewhere, i.e. the point may not be globally
	// optimal even if stationary.
	MaxSufficientViolation float64
	// WorstNode locates MaxUsedGap.
	WorstNode graph.NodeID
	// WorstCommodity locates MaxUsedGap.
	WorstCommodity int
}

// Thresholds below which traffic and routing fractions are treated as
// zero by CheckStationarity.
const (
	MinTraffic = 1e-6
	MinPhi     = 1e-6
)

// CheckStationarity evaluates Theorem 2's conditions on the current
// flows, running every commodity's marginal-cost wave through one
// scratch buffer sized for the largest. An engine's periodic check
// (Engine.MaxUsedGap) computes the same MaxUsedGap on its own
// workspaces without allocating.
func CheckStationarity(u *flow.Usage) StationarityReport {
	x := u.R.X
	rep := StationarityReport{WorstNode: graph.Invalid, WorstCommodity: -1}
	var maxN, maxE int
	for j := range x.Sub {
		maxN, maxE = max(maxN, x.Sub[j].NumNodes()), max(maxE, x.Sub[j].NumEdges())
	}
	m := &Marginals{Rho: make([]float64, maxN), LinkD: make([]float64, maxE)}
	depth := make([]int, maxN)
	for j := range x.Commodities {
		m.wave(u, j, depth)
		sg := &x.Sub[j]
		phi := u.R.Phi[j]
		// Member nodes in ascending local index — the same ascending
		// global-ID order the dense full-graph scan visited, since
		// non-member nodes carried no traffic and were skipped.
		for ln := int32(0); ln < int32(sg.NumNodes()); ln++ {
			t := u.T[j][ln]
			if ln == sg.Sink || t <= MinTraffic {
				continue
			}
			outs := sg.Out(ln)
			if gap := usedGap(phi, m.LinkD, t, outs); gap > rep.MaxUsedGap {
				rep.MaxUsedGap = gap
				rep.WorstNode = sg.Nodes[ln]
				rep.WorstCommodity = j
			}
			for _, le := range outs {
				if viol := (m.Rho[ln] - m.LinkD[le]) / (1 + m.Rho[ln]); viol > rep.MaxSufficientViolation {
					rep.MaxSufficientViolation = viol
				}
			}
		}
	}
	return rep
}

// usedGap is the necessary condition's residual at a non-sink member
// node with traffic t and out-links outs: the largest
// (d_e − min_d)/(1+min_d) over the out-links with φ_e > MinPhi, or 0
// when the node carries no traffic (t ≤ MinTraffic) or has no finite
// link marginal.
func usedGap(phi, linkD []float64, t float64, outs []int32) float64 {
	if t <= MinTraffic {
		return 0
	}
	minD := math.Inf(1)
	for _, le := range outs {
		if linkD[le] < minD {
			minD = linkD[le]
		}
	}
	if math.IsInf(minD, 1) {
		return 0
	}
	var gap float64
	for _, le := range outs {
		if phi[le] > MinPhi {
			if g := (linkD[le] - minD) / (1 + minD); g > gap {
				gap = g
			}
		}
	}
	return gap
}
