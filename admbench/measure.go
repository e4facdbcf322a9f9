package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/refopt"
	"repro/internal/stream"
	"repro/internal/transform"
)

// measure is the untraced run: setupBoots boots for setup_s, then the
// measured window and the closed-loop phase on the last one, then the
// output checks.
func measure(w *workload, window time.Duration, dir string, r *result) error {
	var setups []float64
	var b *booted
	for i := 0; i < setupBoots; i++ {
		var err error
		if b, err = boot(w, filepath.Join(dir, fmt.Sprintf("journal-%d", i))); err != nil {
			return err
		}
		setups = append(setups, b.setup.Seconds())
		if i < setupBoots-1 {
			if err := b.close(); err != nil {
				return err
			}
		}
	}
	run, err := drive(w, b, window, true, nil)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	reportLogs(b)

	r.put("setup_s", medianOf(setups), "s", fmt.Sprintf("median of %d boots %v", len(setups), fmtSecs(setups)))
	lat, _ := decisions(run, r)
	r.putTail("decision", lat)
	r.putTail("ack", okLatencies(run.Writes))
	r.putTail("read", okLatencies(run.Reads))
	run.tally(&r.Tally)
	rates := chunkRates(run.Closed, checkpointEvery)
	r.put("max_mut_per_s", medianOf(rates), "1/s",
		fmt.Sprintf("median over %d chunks of %d closed-loop writes (%d writes in %.3fs)",
			len(rates), checkpointEvery, len(run.Closed), run.ClosedSecs))
	um, _ := timeWeightedMean(utilitySteps(run), run.Start, run.End)
	r.put("utility_mean", um, "util", fmt.Sprintf("%d generations in the window", pubsIn(run)))
	r.put("fail_frac", r.Tally.failFrac(), "frac", fmt.Sprintf("%d of %d", r.Tally.Failed, r.Tally.Attempted))
	r.put("ok_frac", 1-r.Tally.failFrac(), "frac", "1 - fail_frac")
	r.put("rss_peak_mb", peakRSSMB(), "MB", "VmHWM")
	printFacts(run)
	checkRun(w, run, r)
	return nil
}

// decisions computes each window write's decision latency (due time to
// the first observed snapshot whose Rev covers it) and the queue wait
// (latency minus the answering solve's time), and counts every
// accepted write — window and closed-loop — that was not answered
// within decisionTimeout as failed. The answering publication of each
// window write is returned alongside, index-aligned with lat.
func decisions(run *liveRun, r *result) (lat []float64, answers []pub) {
	for _, s := range run.Sent {
		if s.Rev == 0 {
			continue
		}
		p, ok := run.answer(s.Rev)
		if !ok {
			r.Tally.Failed++
			r.fail("rev %d (%s %s) never answered", s.Rev, s.M.Kind, s.M.Name)
			continue
		}
		l := p.At.Sub(s.Due)
		if l > decisionTimeout {
			r.Tally.Failed++
		}
		if s.Window {
			lat = append(lat, ms(l))
			answers = append(answers, p)
		}
	}
	return lat, answers
}

// chunkRates splits back-to-back closed-loop timings into chunks of n
// and returns each chunk's acknowledged writes per second. With n one
// journal checkpoint period, every chunk holds exactly one checkpoint,
// so the median over chunks keeps the checkpoint stall while a burst
// of outside load moves only the chunks it overlaps.
func chunkRates(ts []timing, n int) []float64 {
	var out []float64
	for i := 0; i+n <= len(ts); i += n {
		ok := 0
		for _, t := range ts[i : i+n] {
			if t.Err == nil {
				ok++
			}
		}
		out = append(out, float64(ok)/ts[i+n-1].Done.Sub(ts[i].Sent).Seconds())
	}
	return out
}

func okLatencies(ts []timing) []float64 {
	var out []float64
	for _, t := range ts {
		if t.Err == nil {
			out = append(out, ms(t.Latency()))
		}
	}
	return out
}

func utilitySteps(run *liveRun) []step {
	steps := make([]step, len(run.Pubs))
	for i, p := range run.Pubs {
		steps[i] = step{At: p.At, Value: p.Utility}
	}
	return steps
}

// pubsIn counts the generations published inside the window (the boot
// snapshot, observed as the window opens, is not one).
func pubsIn(run *liveRun) int {
	n := 0
	for _, p := range run.Pubs[1:] {
		if p.At.Before(run.End) {
			n++
		}
	}
	return n
}

// printFacts prints the solver behaviour the workload documents: the
// utility trajectory and how solves ended.
func printFacts(run *liveRun) {
	conv, full := 0, 0
	var us []float64
	for _, p := range run.Pubs {
		if p.Converged {
			conv++
		}
		if p.Iterations > 0 && !p.Converged {
			full++
		}
		us = append(us, p.Utility)
	}
	sort.Float64s(us)
	var solves []float64 // ms; the boot solve, Pubs[0], is left out
	for i := 1; i < len(run.Pubs); i++ {
		solves = append(solves, 1000*run.Pubs[i].SolveSeconds)
	}
	if len(solves) > 0 {
		fmt.Printf("  solve time: n=%d mean %.4g ms, deciles %s\n", len(solves), meanOf(solves), deciles(solves))
	}
	fmt.Printf("  solves observed: %d (%d stationary, %d ran their whole budget, %d generations between polls)\n",
		len(run.Pubs), conv, full, run.Skipped)
	if len(us) > 0 {
		fmt.Printf("  published utility: min %.4f median %.4f max %.4f\n", us[0], median(us), us[len(us)-1])
	}
	var swing float64
	for i := 1; i < len(run.Pubs); i++ {
		d := run.Pubs[i].Utility - run.Pubs[i-1].Utility
		if d < 0 {
			d = -d
		}
		if d > swing {
			swing = d
		}
	}
	fmt.Printf("  largest utility change between consecutive generations: %.4f\n", swing)
}

// checkRun applies the output checks that look at the run as a whole.
func checkRun(w *workload, run *liveRun, r *result) {
	for _, v := range run.Violations {
		r.fail("snapshot check: %s", v)
	}
	if len(run.Pubs) == 0 || run.Final == nil {
		r.fail("no snapshot observed")
		return
	}
	if err := checkSnapshot(run.Final); err != nil {
		r.fail("final snapshot: %s", err)
	}
	final, err := expectedProblem(w, run)
	if err != nil {
		r.fail("%s", err)
		return
	}
	if w.CheckSet {
		want := map[string]bool{}
		for _, c := range final.Commodities {
			want[c.Name] = true
		}
		got := map[string]bool{}
		for _, c := range run.Final.Commodities {
			got[c.Name] = true
		}
		missing, extra := 0, 0
		for n := range want {
			if !got[n] {
				missing++
			}
		}
		for n := range got {
			if !want[n] {
				extra++
			}
		}
		if missing+extra > 0 {
			r.fail("final commodity set: %d missing, %d unexpected (of %d expected)", missing, extra, len(want))
		} else {
			fmt.Printf("  final commodity set matches the expected %d commodities\n", len(want))
		}
	}
	if w.CheckLP {
		ratio, err := lpRatio(final, run.Final.Utility)
		if err != nil {
			r.fail("refopt: %s", err)
			return
		}
		fmt.Printf("  final utility %.6f, refopt LP optimum ratio %.6f\n", run.Final.Utility, ratio)
		if ratio > 1+1e-9 {
			r.fail("final utility %.6f exceeds the refopt LP optimum (ratio %.9f)", run.Final.Utility, ratio)
		}
		r.put("refopt.lp_ratio", ratio, "frac", "final utility / LP optimum")
	}
}

// expectedProblem replays every accepted write on the boot problem:
// the state the final snapshot must describe.
func expectedProblem(w *workload, run *liveRun) (*stream.Problem, error) {
	p := w.Initial.Clone()
	for _, s := range run.Sent {
		if s.Rev == 0 {
			continue
		}
		if err := s.M.apply(p); err != nil {
			return nil, fmt.Errorf("expected state: rev %d: %w", s.Rev, err)
		}
	}
	return p, nil
}

// lpRatio is utility over the refopt LP optimum of p.
func lpRatio(p *stream.Problem, utility float64) (float64, error) {
	x, err := transform.Build(p, transform.Options{Epsilon: defaultEpsilon})
	if err != nil {
		return 0, err
	}
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		return 0, err
	}
	if ref.Utility <= 0 {
		return 0, fmt.Errorf("LP optimum %v", ref.Utility)
	}
	return utility / ref.Utility, nil
}

func reportLogs(b *booted) {
	b.logs.mu.Lock()
	defer b.logs.mu.Unlock()
	fmt.Printf("  server log: %d expected cold starts, %d other lines\n", b.logs.cold, len(b.logs.other))
	for _, l := range b.logs.other {
		fmt.Printf("    %s\n", l)
	}
}

func fmtSecs(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
