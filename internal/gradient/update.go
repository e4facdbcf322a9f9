package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/transform"
)

// updateNode performs the §5 routing update Γ (eqs. 14–17) at member
// node ln of commodity j, writing the routing variables of its
// out-links outs into
// next (whose row must already hold the current routing, since a node
// with no unblocked out-link writes nothing). tagged uses commodity j's
// local node indexing; nil disables blocking.
//
// At each node the fraction routed over every non-best unblocked link
// decreases by Δ = min(φ, η·a/t) where a is the link's marginal excess
// over the best link (eq. 15–16), and the total removed mass moves to
// the best link (eq. 17). When t_i(j) = 0 the step η·a/t is unbounded
// and the update shifts the full fraction — the limit Gallager's
// analysis prescribes (DESIGN.md §6).
func updateNode(u *flow.Usage, j int, sg *transform.Subgraph, m *Marginals, tagged []bool, eta float64, next *flow.Routing, ln int32, outs []int32) {
	phi := u.R.Phi[j]

	// Find the best (minimum-marginal) unblocked out-link; ties break
	// toward the lowest edge ID for determinism. A node k is blocked
	// (k ∈ B_i(j)) when φ_ik = 0 and k's broadcast was tagged.
	best := int32(-1)
	bestD := math.Inf(1)
	for _, le := range outs {
		if blocked(phi, sg, tagged, le) {
			continue
		}
		if d := m.LinkD[le]; d < bestD {
			bestD = d
			best = le
		}
	}
	if best < 0 {
		return // node carries no commodity-j traffic options
	}

	t := u.T[j][ln]
	moved := 0.0
	for _, le := range outs {
		if le == best {
			continue
		}
		if blocked(phi, sg, tagged, le) {
			next.Phi[j][le] = 0 // eq. 14
			continue
		}
		a := m.LinkD[le] - bestD // eq. 15
		var delta float64
		if t > 0 {
			delta = math.Min(phi[le], eta*a/t) // eq. 16
		} else {
			delta = phi[le] // t → 0 limit: empty every non-best link
		}
		next.Phi[j][le] = phi[le] - delta
		moved += delta
	}
	next.Phi[j][best] = phi[best] + moved // eq. 17
}

// blocked reports whether member edge le's head is in the tail's
// blocked set: zero routing fraction and a tagged broadcast.
func blocked(phi []float64, sg *transform.Subgraph, tagged []bool, le int32) bool {
	if tagged == nil {
		return false
	}
	return phi[le] == 0 && tagged[sg.Head[le]]
}
