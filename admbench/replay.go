package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/transform"
)

// Server defaults the replay mirrors where a workload leaves them
// unset (server.Options.setDefaults).
const (
	defaultEpsilon  = 0.2
	defaultEta      = 0.04
	defaultMaxIters = 4000
	defaultTol      = 1e-3
	checkpointEvery = 256
	stationaryEvery = 25
	defaultExchange = 25
	defaultDamping  = 0.5
)

// decisionReplay is what the replay learned about one decision beyond
// its spans.
type decisionReplay struct {
	Rev        int64
	Steps      int // gradient iterations (all shards together)
	Rebuilt    int // shards rebuilt (sharded only)
	Rounds     int // price-exchange rounds (sharded only)
	BuildBytes int64
	Commods    int
	SolveSpan  int // id of the decision's "solve" span
}

// replayResult is the traced replay of a live run's decisions.
type replayResult struct {
	Spans     []span
	Decisions []decisionReplay // boot decision first
	Truncated bool             // stopped at the time budget
}

// replay re-runs the decisions a live run made, in order, through the
// public functions of the server's solve path, with one span per call
// and the decision as parent. The batch of each decision is the set of
// accepted writes the answering snapshot's Rev covered, so coalescing
// matches the live run. Journal writes go to dir.
func replay(w *workload, run *liveRun, dir string, budget time.Duration) (*replayResult, error) {
	o := w.Opts
	eps, eta, iters, tol := orDefault(o.Epsilon, defaultEpsilon), orDefault(o.Eta, defaultEta), o.MaxIters, o.StationaryTol
	if iters <= 0 {
		iters = defaultMaxIters
	}
	if tol == 0 {
		tol = defaultTol
	}

	var jw *journal.Writer
	if w.Journal {
		var err error
		if jw, err = journal.Create(dir, journal.Options{Fsync: journal.FsyncInterval}); err != nil {
			return nil, err
		}
		defer jw.Close()
	}
	var coord *shard.Coordinator
	if o.Shards > 1 {
		coord = shard.New(shard.Config{
			Shards: o.Shards, Salt: o.PlacementSalt,
			Epsilon: eps, Eta: eta, MaxIters: iters, StationaryTol: tol,
			Workers: o.Workers, ExchangeEvery: defaultExchange, Damping: defaultDamping,
		})
	}

	// Decision boundaries: the boot decision, then one per distinct
	// published Rev.
	var bounds []int64
	for _, p := range run.Pubs {
		if n := len(bounds); n == 0 || p.Rev > bounds[n-1] {
			bounds = append(bounds, p.Rev)
		}
	}
	var accepted []sent
	for _, s := range run.Sent {
		if s.Rev > 0 {
			accepted = append(accepted, s)
		}
	}

	tr := &tracer{}
	res := &replayResult{}
	p := w.Initial.Clone()
	var (
		routing  *flow.Routing
		prevSnap *server.Snapshot
		muts     int
		next     int
	)
	start := time.Now()
	for _, rev := range bounds {
		if time.Since(start) > budget {
			res.Truncated = true
			break
		}
		d := decisionReplay{Rev: rev}
		root := tr.start("decision", 0)
		var touched []string
		all := false
		for ; next < len(accepted) && accepted[next].Rev <= rev; next++ {
			m := accepted[next].M
			id := tr.start("stream.clone", root)
			np := p.Clone()
			tr.end(id)
			id = tr.start("stream.apply", root)
			err := m.apply(np)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("replay rev %d: %w", accepted[next].Rev, err)
			}
			p = np
			if t := m.touched(); t == nil {
				all = true
			} else {
				touched = append(touched, t...)
			}
			if jw == nil {
				continue
			}
			op, target, payload := journalShape(m)
			id = tr.start("journal.append", root)
			err = jw.Append(journal.Record{Kind: journal.KindMutation, Rev: accepted[next].Rev,
				Mutation: &journal.Mutation{Op: op, Target: target, Payload: payload}})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			muts++
			if muts%checkpointEvery == 0 {
				id = tr.start("stream.marshal", root)
				pj, err := p.MarshalJSON()
				tr.end(id)
				if err != nil {
					return nil, err
				}
				id = tr.start("journal.append", root)
				err = jw.Append(journal.Record{Kind: journal.KindCheckpoint, Rev: accepted[next].Rev,
					Checkpoint: &journal.Checkpoint{Problem: pj}})
				tr.end(id)
				if err != nil {
					return nil, err
				}
			}
		}

		solve := tr.start("solve", root)
		d.SolveSpan = solve
		id := tr.start("stream.clone", solve)
		sp := p.Clone()
		tr.end(id)
		snap := &server.Snapshot{Rev: rev}
		d.Commods = len(sp.Commodities)
		if coord != nil {
			dirty := make([]bool, o.Shards)
			for i := range dirty {
				dirty[i] = all || rev == bounds[0]
			}
			for _, n := range touched {
				dirty[shard.Place(n, o.PlacementSalt, o.Shards)] = true
			}
			for _, x := range dirty {
				if x {
					d.Rebuilt++
				}
			}
			if err := replaySharded(tr, solve, coord, sp, dirty, snap, &d); err != nil {
				return nil, err
			}
		} else if len(sp.Commodities) > 0 {
			var err error
			routing, err = replaySingle(tr, solve, sp, routing, eps, eta, iters, tol, o.Workers, snap, &d)
			if err != nil {
				return nil, err
			}
		}
		id = tr.start("server.diff_flips", solve)
		flips := server.DiffFlips(prevSnap, snap)
		tr.end(id)
		if jw != nil {
			id = tr.start("server.journal_digest", solve)
			dg := snap.JournalDigest(flips)
			tr.end(id)
			id = tr.start("journal.append", solve)
			err := jw.Append(journal.Record{Kind: journal.KindDigest, Rev: rev, Digest: dg})
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		tr.end(solve)
		tr.end(root)

		// The read side: the handler's encode of GET /v1/admitted.
		id = tr.start("server.snapshot_encode", 0)
		err := json.NewEncoder(io.Discard).Encode(map[string]any{
			"generation": snap.Generation, "utility": snap.Utility, "commodities": snap.Commodities,
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		prevSnap = snap
		res.Decisions = append(res.Decisions, d)
	}
	res.Spans = tr.spans
	return res, nil
}

// replaySingle is the single-engine solve path: build, warm or cold
// engine, the step loop with its periodic Theorem-2 check, and the
// publish-time usage report and attribution.
func replaySingle(tr *tracer, parent int, p *stream.Problem, prev *flow.Routing, eps, eta float64, iters int, tol float64, workers int, snap *server.Snapshot, d *decisionReplay) (*flow.Routing, error) {
	id := tr.start("transform.build", parent)
	x, err := transform.Build(p, transform.Options{Epsilon: eps})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	d.BuildBytes = x.BuildBytes()

	cfg := gradient.Config{Eta: eta, Workers: workers}
	id = tr.start("gradient.init_cold", parent)
	var eng *gradient.Engine
	if prev != nil {
		eng, err = gradient.NewFrom(x, prev, cfg)
		if err == nil {
			tr.rename(id, "gradient.init_warm")
		} else if !errors.Is(err, flow.ErrTopologyChanged) && !errors.Is(err, flow.ErrWorkspaceShape) {
			tr.end(id)
			return nil, err
		}
	}
	if eng == nil {
		eng = gradient.New(x, cfg)
	}
	tr.end(id)

	var det gradient.DivergenceDetector
	for i := 0; i < iters; i++ {
		id = tr.start("gradient.step", parent)
		info := eng.Step()
		tr.end(id)
		d.Steps++
		if det.Observe(info) != nil {
			break
		}
		if tol > 0 && i%stationaryEvery == stationaryEvery-1 {
			id = tr.start("flow.evaluate", parent)
			u := flow.Evaluate(eng.Routing())
			tr.end(id)
			id = tr.start("gradient.stationarity", parent)
			rep := gradient.CheckStationarity(u)
			tr.end(id)
			if rep.MaxUsedGap <= tol {
				break
			}
		}
	}
	id = tr.start("flow.evaluate", parent)
	u := eng.Solution()
	tr.end(id)
	snap.Utility = u.Utility()
	snap.Feasible, _ = u.Feasible()
	id = tr.start("core.usage_report", parent)
	snap.Usage = core.UsageReport(p, x, u)
	tr.end(id)
	id = tr.start("core.explain", parent)
	snap.Explain = core.Explain(p, x, u)
	tr.end(id)
	for j := range x.Commodities {
		c := &x.Commodities[j]
		a := u.AdmittedRate(j)
		snap.Commodities = append(snap.Commodities, server.CommodityStatus{
			Name: c.Name, Offered: c.MaxRate, Admitted: a, Utility: c.Utility.Value(a),
		})
	}
	return eng.Routing(), nil
}

// replaySharded is the sharded solve path: rebuild the dirty shards,
// run the price-exchange rounds, then the stitched usage report,
// attribution and per-commodity state.
func replaySharded(tr *tracer, parent int, coord *shard.Coordinator, p *stream.Problem, dirty []bool, snap *server.Snapshot, d *decisionReplay) error {
	id := tr.start("shard.apply", parent)
	_, err := coord.Apply(p, dirty)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.start("shard.solve", parent)
	res := coord.Solve(context.Background())
	tr.end(id)
	d.Steps, d.Rounds = res.Iterations, res.Rounds
	snap.Utility, snap.Feasible = res.Utility, res.Feasible
	id = tr.start("core.usage_report", parent)
	snap.Usage = coord.UsageReport()
	tr.end(id)
	id = tr.start("core.explain", parent)
	snap.Explain = coord.Explain()
	tr.end(id)
	id = tr.start("shard.commodities", parent)
	for gi, cs := range coord.Commodities() {
		snap.Commodities = append(snap.Commodities, server.CommodityStatus{
			Name: cs.Name, Offered: cs.Offered, Admitted: cs.Admitted,
			Utility: p.Commodities[gi].Utility.Value(cs.Admitted),
		})
	}
	tr.end(id)
	return nil
}

// journalShape is the (op, target, payload) the server journals for a
// mutation.
func journalShape(m *mutation) (op, target string, payload []byte) {
	switch m.Kind {
	case "set_rate":
		payload, _ = json.Marshal(journal.RatePayload{Rate: m.Rate})
		return "set_rate", m.Name, payload
	case "set_rates":
		payload, _ = json.Marshal(journal.RatesPayload{Rates: m.Rates})
		return "set_rates", fmt.Sprintf("batch:%d", len(m.Rates)), payload
	case "add":
		return "add_commodity", m.Name, m.Spec
	case "remove":
		return "remove_commodity", m.Name, nil
	case "scale_capacity":
		payload, _ = json.Marshal(journal.ScalePayload{Factor: m.Factor})
		return "scale_capacity", m.Name, payload
	}
	return m.Kind, m.Name, nil
}

func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}
