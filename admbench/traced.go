package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// solveCovered are the layers the server's Snapshot.SolveSeconds
// covers: from after the solve's problem clone to the evaluated
// solution, before the usage report and attribution.
var solveCovered = map[string]bool{
	"transform.build": true, "shard.apply": true,
	"gradient.init_cold": true, "gradient.init_warm": true,
	"gradient.step": true, "flow.evaluate": true, "gradient.stationarity": true,
	"shard.solve": true,
}

// traced is the --trace 1 run: an untraced window (the overhead
// baseline), a window with harness spans around every call into the
// server, then a replay of the traced window's decisions through the
// solve path's public functions. It prints every per-layer metric.
func traced(w *workload, window time.Duration, dir string, r *result) error {
	baseRun, err := liveOnce(w, window, filepath.Join(dir, "journal-0"), nil)
	if err != nil {
		return err
	}
	tr := &tracer{}
	run, err := liveOnce(w, window, filepath.Join(dir, "journal-1"), tr)
	if err != nil {
		return err
	}
	baseLat, _ := decisions(baseRun, r)
	lat, answers := decisions(run, r)
	for _, lr := range []*liveRun{baseRun, run} {
		lr.tally(&r.Tally)
		checkRun(w, lr, r)
	}
	printFacts(run)

	rp, err := replay(w, run, filepath.Join(dir, "journal-replay"), replayBudget)
	if err != nil {
		return err
	}
	nd := len(rp.Decisions)
	fmt.Printf("  replayed %d decisions (boot decision included; truncated at the time budget: %v)\n", nd, rp.Truncated)

	layers := byLayer(rp.Spans)
	mean := func(name string) float64 { return layers[name].meanMs() }
	perDecision := func(n int) float64 {
		if nd == 0 {
			return 0
		}
		return float64(n) / float64(nd)
	}
	var steps, rebuilt, rounds int
	var bytesPer []float64
	for _, d := range rp.Decisions {
		steps += d.Steps
		rebuilt += d.Rebuilt
		rounds += d.Rounds
		if d.BuildBytes > 0 && d.Commods > 0 {
			bytesPer = append(bytesPer, float64(d.BuildBytes)/float64(d.Commods))
		}
	}

	r.put("stream.clone_ms", mean("stream.clone"), "ms", calls(layers, "stream.clone"))
	r.put("stream.clones_per_decision", perDecision(layers["stream.clone"].Calls), "count", "")
	r.put("stream.apply_ms", mean("stream.apply"), "ms", calls(layers, "stream.apply"))
	r.put("stream.marshal_ms", mean("stream.marshal"), "ms", calls(layers, "stream.marshal"))
	r.put("journal.append_us", 1000*mean("journal.append"), "us", calls(layers, "journal.append"))
	r.put("journal.checkpoints", float64(layers["stream.marshal"].Calls), "count", "periodic checkpoints in the replayed window")
	r.put("transform.build_ms", mean("transform.build"), "ms", calls(layers, "transform.build"))
	r.put("transform.build_bytes_per_commodity", medianOf(bytesPer), "B", "median over single-engine builds")
	r.put("shard.apply_ms", mean("shard.apply"), "ms", calls(layers, "shard.apply"))
	r.put("shard.rebuilt_per_decision", perDecision(rebuilt), "count", "")
	r.put("shard.solve_ms", mean("shard.solve"), "ms", calls(layers, "shard.solve"))
	r.put("shard.rounds_per_decision", perDecision(rounds), "count", "")
	r.put("gradient.init_cold_ms", mean("gradient.init_cold"), "ms", calls(layers, "gradient.init_cold"))
	r.put("gradient.init_warm_ms", mean("gradient.init_warm"), "ms", calls(layers, "gradient.init_warm"))
	stepUs, stepNote := 1000*mean("gradient.step"), calls(layers, "gradient.step")
	if s := layers["shard.solve"]; s.Calls > 0 && steps > 0 && w.Opts.Shards > 1 {
		// Sharded steps run inside Coordinator.Solve; report the wall
		// time of one step of every shard (the solve's self time over
		// per-shard steps), which includes the price exchange.
		stepUs = 1000 * ms(s.Total) / (float64(steps) / float64(w.Opts.Shards))
		stepNote = "derived: shard.solve self time per per-shard step"
	}
	r.put("gradient.step_us", stepUs, "us", stepNote)
	r.put("gradient.steps_per_decision", perDecision(steps), "count", "all shards together")
	r.put("gradient.stationarity_ms", mean("gradient.stationarity"), "ms", calls(layers, "gradient.stationarity"))
	conv, solves := 0, 0
	for _, p := range run.Pubs {
		solves++
		if p.Converged {
			conv++
		}
	}
	r.put("gradient.converged_frac", float64(conv)/float64(solves), "frac", fmt.Sprintf("%d of %d live solves stationary", conv, solves))
	r.put("flow.evaluate_ms", mean("flow.evaluate"), "ms", calls(layers, "flow.evaluate"))
	r.put("core.usage_report_ms", mean("core.usage_report"), "ms", calls(layers, "core.usage_report"))
	r.put("core.explain_ms", mean("core.explain"), "ms", calls(layers, "core.explain"))
	r.put("server.diff_flips_ms", mean("server.diff_flips"), "ms", calls(layers, "server.diff_flips"))
	r.put("server.snapshot_encode_ms", mean("server.snapshot_encode"), "ms", calls(layers, "server.snapshot_encode"))

	var solveMs []float64
	busy := 0.0
	for _, p := range run.Pubs[1:] {
		solveMs = append(solveMs, 1000*p.SolveSeconds)
		if p.At.Before(run.End) {
			busy += p.SolveSeconds
		}
	}
	r.put("server.solve_ms", medianOf(solveMs), "ms", fmt.Sprintf("median of %d live solves", len(solveMs)))
	queue := make([]float64, len(lat))
	revs := map[int64]bool{}
	for i, p := range answers {
		queue[i] = lat[i] - 1000*p.SolveSeconds
		revs[p.Rev] = true
	}
	r.put("server.queue_wait_ms", medianOf(queue), "ms", fmt.Sprintf("n=%d", len(queue)))
	r.put("server.mutations_per_solve", float64(len(lat))/float64(max(1, len(revs))), "count", "")
	r.put("server.solve_busy_frac", busy/window.Seconds(), "frac", "")

	var late []float64
	for _, t := range run.Writes {
		late = append(late, ms(t.Late()))
	}
	lt := summarize(late)
	r.put("bench.gen_late_p99_ms", lt.Tail, "ms", fmt.Sprintf("n=%d, reported percentile p%.4g", lt.N, lt.Percentile))
	live := byLayer(tr.spans)
	for _, name := range sortedNames(live) {
		l := live[name]
		fmt.Printf("  live span %-28s %6d calls, mean %.3f ms\n", name, l.Calls, l.meanMs())
	}

	baseP50, tracedP50 := medianOf(baseLat), medianOf(lat)
	r.put("bench.trace_overhead_ms", tracedP50-baseP50, "ms",
		fmt.Sprintf("traced decision_p50 %.3f ms - untraced %.3f ms", tracedP50, baseP50))
	r.put("bench.unexplained_frac", unexplained(rp, lat, answers, queue), "frac",
		"share of decision_p50 left after per-layer self times and queue wait")
	return nil
}

// liveOnce boots a server and drives one window without the
// closed-loop phase.
func liveOnce(w *workload, window time.Duration, dir string, tr *tracer) (*liveRun, error) {
	b, err := boot(w, dir)
	if err != nil {
		return nil, err
	}
	run, err := drive(w, b, window, false, tr)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	reportLogs(b)
	return run, err
}

// unexplained is (p50 latency − p50 explained) / p50 latency over the
// window writes whose decision was replayed, where a write's explained
// time is its queue wait plus the self times of the replayed layers
// its answering solve's SolveSeconds covers.
func unexplained(rp *replayResult, lat []float64, answers []pub, queue []float64) float64 {
	self := selfTimes(rp.Spans)
	covered := map[int]float64{} // solve span id → ms
	for i, s := range rp.Spans {
		if solveCovered[s.Name] {
			covered[s.Parent] += ms(self[i])
		}
	}
	byRev := map[int64]float64{}
	for _, d := range rp.Decisions {
		byRev[d.Rev] = covered[d.SolveSpan]
	}
	var l, e []float64
	for i, p := range answers {
		c, ok := byRev[p.Rev]
		if !ok {
			continue
		}
		l = append(l, lat[i])
		e = append(e, queue[i]+c)
	}
	if len(l) == 0 {
		return 0
	}
	m := medianOf(l)
	return (m - medianOf(e)) / m
}

func calls(layers map[string]layerStat, name string) string {
	return fmt.Sprintf("%d calls", layers[name].Calls)
}
