package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailIndex(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantIdx int
		wantPct float64
	}{
		{n: 0, wantIdx: -1, wantPct: 0},
		{n: 5, wantIdx: 2, wantPct: 60},  // too few: the median stands in
		{n: 10, wantIdx: 4, wantPct: 50}, // still too few
		{n: 11, wantIdx: 0, wantPct: 100 / 11.0},
		{n: 100, wantIdx: 89, wantPct: 90},    // 10 samples above p90
		{n: 400, wantIdx: 389, wantPct: 97.5}, // 10 samples above p97.5
		{n: 1000, wantIdx: 989, wantPct: 99},  // p99 with exactly 10 above
		{n: 5000, wantIdx: 4949, wantPct: 99}, // capped at p99
	} {
		idx, pct := tailIndex(tc.n)
		if idx != tc.wantIdx || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("tailIndex(%d) = %d, p%v; want %d, p%v", tc.n, idx, pct, tc.wantIdx, tc.wantPct)
		}
		if tc.n > minBeyond && tc.n-1-idx < minBeyond {
			t.Errorf("tailIndex(%d): only %d samples beyond", tc.n, tc.n-1-idx)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100 … 1, unsorted input
	}
	got := summarize(samples)
	if got.N != 100 || got.P50 != 50.5 || got.P90 != 90 || got.Tail != 90 || got.Percentile != 90 {
		t.Fatalf("summarize = %+v, want N=100 P50=50.5 P90=90 Tail=90 at p90", got)
	}
	if got := summarize([]float64{3, 1, 2}); got.P90 != 3 {
		t.Fatalf("summarize of 3 samples: P90 = %v, want the largest (nearest rank)", got.P90)
	}
	if samples[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
}

func TestTimeWeightedMean(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	steps := []step{{at(-5), 10}, {at(2), 40}, {at(3), 0}, {at(20), 99}}
	// Over [0, 10): 10 for 2 s, 40 for 1 s, 0 for 7 s.
	got, ok := timeWeightedMean(steps, at(0), at(10))
	if !ok || math.Abs(got-(10*2+40*1)/10.0) > 1e-12 {
		t.Fatalf("mean = %v, %v; want 6", got, ok)
	}
	// A window before the first step is not covered; a window that
	// starts before it covers only the part after it.
	if _, ok := timeWeightedMean(steps, at(-9), at(-6)); ok {
		t.Fatal("uncovered window reported as covered")
	}
	got, _ = timeWeightedMean(steps, at(-9), at(-3))
	if got != 10 {
		t.Fatalf("partly covered mean = %v, want 10", got)
	}
	// A step after the window ends contributes nothing.
	got, _ = timeWeightedMean(steps, at(5), at(15))
	if got != 0 {
		t.Fatalf("mean = %v, want 0", got)
	}
}

// fakeClock advances only when told to: SleepUntil jumps forward and
// the operation under test advances it by its service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopDueTimeLatency(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	// Ops due every 10 ms; op 1 stalls for 35 ms, the others take 2 ms.
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond}
	service := []time.Duration{2, 35, 2, 2, 2}
	got := openLoop(clk, start, due, func(i int) error {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		return nil
	})
	wantLat := []time.Duration{2, 35, 27, 19, 2} // from due, so the stall counts for ops 2 and 3
	wantLate := []time.Duration{0, 0, 25, 17, 0}
	for i, tm := range got {
		if tm.Latency() != wantLat[i]*time.Millisecond || tm.Late() != wantLate[i]*time.Millisecond {
			t.Errorf("op %d: latency %v late %v; want %v, %v", i, tm.Latency(), tm.Late(),
				wantLat[i]*time.Millisecond, wantLate[i]*time.Millisecond)
		}
	}
	lat := okLatencies(got)
	if s := summarize(lat); s.P50 != 19 {
		t.Errorf("p50 latency = %v ms, want 19", s.P50)
	}
}

func TestFailAccounting(t *testing.T) {
	var tl tally
	for i := 0; i < 8; i++ {
		tl.add(false)
	}
	tl.add(true) // a refused write
	tl.add(true) // a failed read
	if got := tl.failFrac(); got != 0.2 {
		t.Fatalf("failFrac = %v, want 0.2", got)
	}
	if (tally{}).failFrac() != 0 {
		t.Fatal("empty tally should report 0")
	}

	// Decision accounting: an accepted write answered in time, one
	// answered late, one never answered, and a refused write (its
	// failure was counted at the HTTP layer, so it has no decision).
	t0 := time.Unix(0, 0)
	m := &mutation{Kind: "set_rate", Name: "S1"}
	run := &liveRun{
		Sent: []sent{
			{M: m, Rev: 2, Due: t0, Window: true},
			{M: m, Rev: 3, Due: t0, Window: true},
			{M: m, Rev: 4, Due: t0, Window: true},
			{M: m, Rev: 0, Due: t0, Window: true},
		},
		Pubs: []pub{
			{At: t0.Add(time.Second), Rev: 2},
			{At: t0.Add(decisionTimeout + time.Second), Rev: 3},
		},
	}
	r := newResult(nil)
	r.Tally = tally{Attempted: 4, Failed: 1}
	lat, answers := decisions(run, r)
	if len(lat) != 2 || len(answers) != 2 || lat[0] != 1000 {
		t.Fatalf("latencies %v, want [1000 %v]", lat, ms(decisionTimeout+time.Second))
	}
	if r.Tally.Failed != 3 || r.Tally.failFrac() != 0.75 {
		t.Fatalf("failed %d of %d, want 3 of 4", r.Tally.Failed, r.Tally.Attempted)
	}
	if len(r.Failures) != 1 {
		t.Fatalf("check failures %v, want one unanswered write", r.Failures)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "decision", ID: 1, Start: at(0), End: at(100)},
		{Name: "stream.clone", ID: 2, Parent: 1, Start: at(0), End: at(10)},
		{Name: "solve", ID: 3, Parent: 1, Start: at(10), End: at(95)},
		{Name: "gradient.step", ID: 4, Parent: 3, Start: at(10), End: at(50)},
		{Name: "gradient.step", ID: 5, Parent: 3, Start: at(50), End: at(90)},
	}
	self := selfTimes(spans)
	want := []int{5, 10, 5, 40, 40}
	for i := range want {
		if self[i] != time.Duration(want[i])*time.Millisecond {
			t.Errorf("self[%s] = %v, want %d ms", spans[i].Name, self[i], want[i])
		}
	}
	l := byLayer(spans)["gradient.step"]
	if l.Calls != 2 || l.meanMs() != 40 {
		t.Errorf("gradient.step layer = %+v, want 2 calls of 40 ms", l)
	}
}

func TestChunkRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ts []timing
	// Two chunks of 4 back-to-back writes: 1 ms each, then one of them
	// stalls for 97 ms (a checkpoint) and one is refused.
	for i, d := range []int{1, 1, 1, 1, 1, 97, 1, 1, 1} {
		tm := timing{Sent: t0, Done: t0.Add(time.Duration(d) * time.Millisecond)}
		if i == 7 {
			tm.Err = errTest
		}
		ts = append(ts, tm)
		t0 = tm.Done
	}
	got := chunkRates(ts, 4) // the ninth write is a partial chunk and is dropped
	if len(got) != 2 || math.Abs(got[0]-1000) > 1e-9 || math.Abs(got[1]-30) > 1e-9 {
		t.Fatalf("chunkRates = %v, want [1000 30]", got)
	}
}

var errTest = errors.New("refused")
