package server

import (
	"math"
	"testing"

	"repro/internal/randnet"
)

// goldenGen is one generation of the scripted single-engine run, reduced
// to the values the pin compares bit for bit.
type goldenGen struct {
	UtilityBits uint64
	Iterations  int
	Converged   bool
	Hash        string
}

// goldenScript drives a single-engine server through a fixed mutation
// script, one gated solve per step, and returns each generation's pinned
// values. The instance starts with one commodity held back so the
// script can add it; the last step resets a rate to its current value,
// a warm start that is already stationary.
func goldenScript(t *testing.T) []goldenGen {
	t.Helper()
	full, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	held := full.Commodities[3].Name
	spec, err := full.MarshalCommodityJSON(held)
	if err != nil {
		t.Fatal(err)
	}
	p := full.Clone()
	p.RemoveCommodity(held)
	first, second := p.Commodities[0].Name, p.Commodities[1].Name
	// The first commodity's source server: cutting it shifts the
	// operating point.
	src := p.Commodities[0].Source
	server := p.Net.Names[src]

	gate := make(chan struct{})
	s, err := New(p, Options{
		MaxIters:      3010,
		StationaryTol: 1e-3,
		Workers:       1,
		Debounce:      -1,
		SolveGate:     gate,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var out []goldenGen
	solve := func(step string) {
		t.Helper()
		s.Kick()
		gate <- struct{}{}
		snap, err := s.WaitForGeneration(int64(len(out)+1), waitBudget)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		out = append(out, goldenGen{
			UtilityBits: math.Float64bits(snap.Utility),
			Iterations:  snap.Iterations,
			Converged:   snap.Converged,
			Hash:        snap.JournalDigest(nil).AdmittedHash,
		})
	}
	must := func(_ int64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	solve("boot")
	must(s.SetMaxRate(first, 0.5*p.Commodities[0].MaxRate))
	solve("set_rate")
	must(s.AddCommodityJSON(spec))
	solve("add_commodity")
	must(s.RemoveCommodity(second))
	solve("remove_commodity")
	must(s.SetCapacity(server, 0.6*p.Net.Capacity[src]))
	solve("set_capacity")
	must(s.SetMaxRate(first, 0.5*p.Commodities[0].MaxRate))
	solve("set_rate_unchanged")
	return out
}

// TestSingleEngineGolden pins the single-engine server's trajectory:
// the utility bits, iteration count, convergence flag and admitted-set
// hash of every generation of a scripted run. The values were recorded
// from the dedicated single-engine solve loop before the single engine
// became a one-runner shard coordinator; any drift in the step loop,
// the stationarity cadence or the warm-start path shows up here. The
// first four solves exhaust a budget that is not a multiple of the
// check cadence, the fifth converges, and the last is an already
// stationary warm start that must still take one full check period.
func TestSingleEngineGolden(t *testing.T) {
	want := []goldenGen{
		{UtilityBits: 0x4027c9a39c883c9a, Iterations: 3010, Converged: false, Hash: "ca188aa812cc84fdb17dd9370fd524955ca0b12f7c5629909915e8c04896ac78"},
		{UtilityBits: 0x4027c9d10abaa21e, Iterations: 3010, Converged: false, Hash: "91678203ebfa7979eb4ee510446b626c48311579304fbfd14ddc2036c14023e0"},
		{UtilityBits: 0x4037cd71df2ca152, Iterations: 3010, Converged: false, Hash: "6134002cd7f3c93099bf38c90525fa792849b309e6af07e8d7402514a853dc1b"},
		{UtilityBits: 0x4034982864025c3a, Iterations: 3010, Converged: false, Hash: "b8798d071d54124457fd8e1a39f899d2cbd5d035749863d371c165c215ad28ef"},
		{UtilityBits: 0x4034b47380248bf2, Iterations: 1775, Converged: true, Hash: "e23b7d7cdfc56e6bd4b503a48496e40c485acc4812507d9a4897d31810c0073a"},
		{UtilityBits: 0x4034b475dca953ce, Iterations: 25, Converged: true, Hash: "3d92904afcb023a037f71a39334773a6649195aae9cc307a1caa1b82f6a0a475"},
	}
	got := goldenScript(t)
	if len(got) != len(want) {
		t.Fatalf("got %d generations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("generation %d: got %+v (utility %v), want %+v (utility %v)", i+1,
				got[i], math.Float64frombits(got[i].UtilityBits),
				want[i], math.Float64frombits(want[i].UtilityBits))
		}
	}
}
