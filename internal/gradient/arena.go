package gradient

import (
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/transform"
)

// waveWorkspace is one commodity's scratch for a single iteration's
// wave, allocated once per engine and overwritten in place each pass.
type waveWorkspace struct {
	m      Marginals
	depth  []int
	tagged []bool

	// Per-commodity results of the last pass, reduced in fixed j order
	// so the totals are independent of worker scheduling.
	taggedCount int
	gap         float64
}

// arena owns the per-commodity workspaces, the per-step node price
// vector and the worker pool that runs the §5 waves. The paper's
// protocol phases are independent across commodities — each
// commodity's wave reads only the shared (read-only) usage and prices
// and writes only its own φ row — so the pool parallelizes them without
// changing a single bit of the trajectory: every commodity computes in
// its own workspace, and the messages/rounds/tag-count reduction
// happens afterwards in commodity order.
type arena struct {
	ws      []waveWorkspace
	workers int
	// price[n] is ε·D'_n(f_n) (plus any External usage) at every
	// extended node n — the congestion price §5 has each node compute
	// once per iteration and broadcast. Refilled at the start of every
	// pass, because a shard coordinator rewrites External between runs.
	price []float64

	// The running pass's inputs: set before the pool starts, read-only
	// while it runs. next == nil makes the pass a stationarity check.
	u        *flow.Usage
	eta      float64
	blocking bool
	next     *flow.Routing
}

func newArena(x *transform.Extended, workers int) *arena {
	a := &arena{
		ws:      make([]waveWorkspace, x.NumCommodities()),
		workers: workers,
		price:   make([]float64, x.G.NumNodes()),
	}
	for j := range a.ws {
		nn, ne := x.Sub[j].NumNodes(), x.Sub[j].NumEdges()
		a.ws[j] = waveWorkspace{
			m:      Marginals{Rho: make([]float64, nn), LinkD: make([]float64, ne)},
			depth:  make([]int, nn),
			tagged: make([]bool, nn),
		}
	}
	return a
}

// runWave executes the marginal-cost wave, the loop-freedom tagging
// protocol (when blocking is true) and the routing update Γ for every
// commodity against the evaluated usage u, writing each commodity's new
// φ row into next (after seeding it with the current row, so next is a
// full routing even though the engine double-buffers instead of
// cloning). The returned totals (messages, the max of the wave depths,
// tag count) are reduced in fixed commodity order, so they — like next
// — are bitwise-identical for every worker count.
func (a *arena) runWave(u *flow.Usage, eta float64, blocking bool, next *flow.Routing) (messages, maxRounds, taggedCount int) {
	a.u, a.eta, a.blocking, a.next = u, eta, blocking, next
	a.run()
	for j := range a.ws {
		w := &a.ws[j]
		messages += w.m.Messages
		maxRounds = max(maxRounds, w.m.Rounds)
		taggedCount += w.taggedCount
	}
	return messages, maxRounds, taggedCount
}

// maxUsedGap is CheckStationarity(u).MaxUsedGap computed on the arena's
// workspaces: one marginal-cost wave per commodity and no allocation.
func (a *arena) maxUsedGap(u *flow.Usage) float64 {
	a.u, a.next = u, nil
	a.run()
	var gap float64
	for j := range a.ws {
		if g := a.ws[j].gap; g > gap {
			gap = g
		}
	}
	return gap
}

// run prices every node at a.u, then runs one pass per commodity, on a
// bounded pool when workers > 1.
func (a *arena) run() {
	x := a.u.R.X
	for n, f := range a.u.FNode {
		a.price[n] = x.PenaltyDeriv(graph.NodeID(n), f)
	}
	nc := len(a.ws)
	if workers := min(a.workers, nc); workers > 1 {
		var idx atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func() {
				defer wg.Done()
				for {
					j := int(idx.Add(1)) - 1
					if j >= nc {
						return
					}
					a.one(j)
				}
			}()
		}
		wg.Wait()
	} else {
		for j := 0; j < nc; j++ {
			a.one(j)
		}
	}
}

// one runs commodity j's pass as a single reverse-topological sweep of
// its member DAG. At each node the marginal step reads only its heads'
// ρ, the tag only its heads' tags and its own ρ/LinkD, and Γ only its
// own LinkD and its heads' tags — all final by the time reverse
// topological order reaches the node — so the sweep equals the three
// sequential waves (marginal, tagging, update) bit for bit. A check
// pass (next == nil) replaces tag and update by the node's stationarity
// residual. A named method rather than a closure so the sequential path
// stays allocation-free.
func (a *arena) one(j int) {
	u, w := a.u, &a.ws[j]
	sg := &u.R.X.Sub[j]
	phi, t := u.R.Phi[j], u.T[j]
	// No clearing: every non-sink node rewrites its own ρ, depth, tag
	// and out-link marginals before any upstream node reads them, and
	// the sink's entries stay at their zero value.
	w.m.Rounds, w.m.Messages = 0, 0
	w.taggedCount, w.gap = 0, 0
	var tagged []bool
	if a.blocking {
		tagged = w.tagged
	}
	if a.next != nil {
		copy(a.next.Phi[j], phi)
	}
	loss := diffLinkLoss(u, j)
	for _, ln := range sg.RevTopo() {
		if ln == sg.Sink {
			continue // convention ∂A/∂r_j(j) = 0
		}
		outs := sg.Out(ln)
		w.m.node(sg, phi, w.depth, ln, outs, a.price[sg.Nodes[ln]], loss)
		if a.next == nil {
			// Strict > rather than max, which would let a NaN
			// through where CheckStationarity skips it.
			if g := usedGap(phi, w.m.LinkD, t[ln], outs); g > w.gap {
				w.gap = g
			}
			continue
		}
		if tagged != nil {
			tagged[ln] = tagNode(sg, phi, &w.m, tagged, t[ln], a.eta, ln, outs)
			if tagged[ln] {
				w.taggedCount++
			}
		}
		updateNode(u, j, sg, &w.m, tagged, a.eta, a.next, ln, outs)
	}
}
