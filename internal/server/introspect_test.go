package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/gradient"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// explainResponse mirrors the GET /explain?commodity= payload.
type explainResponse struct {
	Generation int64                 `json:"generation"`
	Explain    core.CommodityExplain `json:"explain"`
}

// TestExplainEndpoint overloads the toy network (λ ≫ capacity) and
// checks the attribution names a binding resource with a positive
// shadow price — the acceptance criterion for /explain.
func TestExplainEndpoint(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	s, ts := startServer(t, rec)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	// Offer triple the chain's capacity so admission is capacity-cut.
	if _, err := s.SetMaxRate("c1", 30); err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commodities[0].Admitted >= 29 {
		t.Fatalf("instance not capacity-limited: admitted %g of 30", snap.Commodities[0].Admitted)
	}

	for _, query := range []string{"c1", "0"} {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/explain?commodity="+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /explain?commodity=%s status %d: %s", query, resp.StatusCode, body)
		}
		var er explainResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("explain response does not parse: %v\n%s", err, body)
		}
		ce := er.Explain
		if ce.Name != "c1" || ce.Offered != 30 {
			t.Fatalf("explain for %q: %+v", query, ce)
		}
		if ce.Admitted <= 0 {
			t.Fatalf("explain reports nothing admitted: %+v", ce)
		}
		if ce.MarginalUtility <= 0 || ce.PathCost <= 0 {
			t.Fatalf("admission marginals missing: %+v", ce)
		}
		if len(ce.Binding) == 0 {
			t.Fatalf("capacity-constrained commodity has no binding resource: %+v", ce)
		}
		top := ce.Binding[0]
		if top.Price <= 0 || top.Name == "" || (top.Kind != "server" && top.Kind != "link") {
			t.Fatalf("bad binding entry: %+v", top)
		}
	}

	// No query: all commodities.
	resp, body := doReq(t, http.MethodGet, ts.URL+"/explain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain status %d", resp.StatusCode)
	}
	var all struct {
		Generation int64                   `json:"generation"`
		Explain    []core.CommodityExplain `json:"explain"`
	}
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Explain) != 1 {
		t.Fatalf("explain-all entries = %d, want 1", len(all.Explain))
	}

	// Unknown commodity: 404.
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/explain?commodity=ghost", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown commodity status %d, want 404", resp.StatusCode)
	}

	// Every published generation increments the attribution counter.
	c := rec.Registry().Counter("streamopt_attributions_total", "")
	if c.Value() == 0 {
		t.Fatal("no attribution events recorded across solves")
	}
}

// TestHistoryEndpoint checks /history reports generation-over-generation
// utility and admitted-rate diffs after a rate cut.
func TestHistoryEndpoint(t *testing.T) {
	s, ts := startServer(t, nil)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 2); err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/history", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /history status %d: %s", resp.StatusCode, body)
	}
	var hist struct {
		Generations []HistoryEntry `json:"generations"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		t.Fatalf("history response does not parse: %v\n%s", err, body)
	}
	if len(hist.Generations) < 2 {
		t.Fatalf("history entries = %d, want ≥ 2", len(hist.Generations))
	}
	for i := 1; i < len(hist.Generations); i++ {
		if hist.Generations[i].Generation <= hist.Generations[i-1].Generation {
			t.Fatalf("history not oldest-first: %+v", hist.Generations)
		}
	}
	last := hist.Generations[len(hist.Generations)-1]
	prev := hist.Generations[len(hist.Generations)-2]
	if last.Generation != snap.Generation {
		t.Fatalf("latest history generation %d != snapshot %d", last.Generation, snap.Generation)
	}
	wantDU := last.Utility - prev.Utility
	if diff := last.DeltaUtility - wantDU; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("deltaUtility %g, want %g", last.DeltaUtility, wantDU)
	}
	wantDA := last.Admitted["c1"] - prev.Admitted["c1"]
	if diff := last.DeltaAdmitted["c1"] - wantDA; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("deltaAdmitted[c1] %g, want %g", last.DeltaAdmitted["c1"], wantDA)
	}
	// The rate cut must show as a drop.
	if last.DeltaAdmitted["c1"] >= 0 {
		t.Fatalf("rate cut did not show as negative admitted delta: %+v", last)
	}
}

// TestHistoryRingBounded drives more generations than HistoryCap and
// checks only the newest survive, oldest-first.
func TestHistoryRingBounded(t *testing.T) {
	opts := testOptions(nil)
	opts.HistoryCap = 3
	s, err := New(toyProblem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	last := gen.Generation
	for i := 0; i < 5; i++ {
		if _, err := s.SetMaxRate("c1", 3+float64(i)); err != nil {
			t.Fatal(err)
		}
		snap, err := s.WaitForGeneration(last+1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		last = snap.Generation
	}
	hist := s.History()
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want cap 3", len(hist))
	}
	if hist[len(hist)-1].Generation != last {
		t.Fatalf("newest generation %d missing from history tail %d",
			last, hist[len(hist)-1].Generation)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Generation <= hist[i-1].Generation {
			t.Fatal("history ring not oldest-first after wraparound")
		}
	}
}

// TestDebugTraceEndpoint wires a trace ring into the server and checks
// /debug/trace serves sampled per-iteration solver state.
func TestDebugTraceEndpoint(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	opts := testOptions(rec)
	opts.Trace = trace.New(256, 1)
	s, err := New(toyProblem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler(rec.Registry()))
	t.Cleanup(ts.Close)

	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/debug/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace status %d: %s", resp.StatusCode, body)
	}
	var tr struct {
		Capacity int            `json:"capacity"`
		Stride   int            `json:"stride"`
		Seen     uint64         `json:"seen"`
		Samples  []trace.Sample `json:"samples"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace response does not parse: %v\n%s", err, body)
	}
	if tr.Capacity != 256 || tr.Stride != 1 {
		t.Fatalf("trace shape = cap %d stride %d", tr.Capacity, tr.Stride)
	}
	if len(tr.Samples) == 0 || tr.Seen == 0 {
		t.Fatal("trace ring empty after a solve")
	}
	s0 := tr.Samples[0]
	if s0.Eta != 0.04 {
		t.Fatalf("trace sample eta = %g, want the default 0.04", s0.Eta)
	}
	if len(s0.Admitted) != 1 {
		t.Fatalf("trace sample admitted = %v, want 1 commodity", s0.Admitted)
	}
	// Per-iteration phase durations must be populated somewhere in the
	// trace (the first iterations always run all four phases).
	var phased bool
	for _, ph := range s0.PhaseSeconds {
		if ph > 0 {
			phased = true
		}
	}
	if !phased {
		t.Fatalf("trace sample carries no phase timings: %+v", s0)
	}

	// The trace fill-level gauge follows the ring.
	g := rec.Registry().Gauge("streamopt_trace_samples", "")
	if g.Value() == 0 {
		t.Fatal("streamopt_trace_samples gauge not updated on publish")
	}
}

// TestDebugTraceDisabled: without Options.Trace the endpoint 404s.
func TestDebugTraceDisabled(t *testing.T) {
	_, ts := startServer(t, nil)
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/debug/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/trace without a ring: status %d, want 404", resp.StatusCode)
	}
}

// TestSnapshotStopReason checks the solve's stop reason reaches the
// snapshot JSON and the history entries in single-engine and sharded
// mode alike: a converging solve stops "stationary", a starved budget
// "max_iters".
func TestSnapshotStopReason(t *testing.T) {
	for _, shards := range []int{0, 4} {
		for _, tc := range []struct {
			maxIters  int
			want      gradient.StopReason
			converged bool
		}{
			{1500, gradient.StopStationary, true},
			{10, gradient.StopMaxIters, false},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.want), func(t *testing.T) {
				opts := testOptions(nil)
				opts.Shards = shards
				opts.MaxIters = tc.maxIters
				s, err := New(toyProblem(t), opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = s.Close() })
				ts := httptest.NewServer(s.Handler(nil))
				t.Cleanup(ts.Close)
				if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
					t.Fatal(err)
				}

				resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/snapshot", nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /v1/snapshot status %d: %s", resp.StatusCode, body)
				}
				var snap struct {
					Stop      string `json:"stop"`
					Converged bool   `json:"converged"`
				}
				if err := json.Unmarshal(body, &snap); err != nil {
					t.Fatal(err)
				}
				if snap.Stop != string(tc.want) || snap.Converged != tc.converged {
					t.Errorf("snapshot stop=%q converged=%v, want %q %v", snap.Stop, snap.Converged, tc.want, tc.converged)
				}

				resp, body = doReq(t, http.MethodGet, ts.URL+"/history", nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /history status %d: %s", resp.StatusCode, body)
				}
				var hist struct {
					Generations []HistoryEntry `json:"generations"`
				}
				if err := json.Unmarshal(body, &hist); err != nil {
					t.Fatal(err)
				}
				if len(hist.Generations) == 0 || hist.Generations[0].Stop != tc.want {
					t.Errorf("history = %+v, want first generation stopped %q", hist.Generations, tc.want)
				}
			})
		}
	}
}
