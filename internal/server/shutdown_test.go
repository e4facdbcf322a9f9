package server_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/replay"
	"repro/internal/server"
)

// TestShutdownMatrix closes the server at two points of a decision —
// while the boot batch is still coalescing (an hour-long debounce) and
// while the solve is iterating (an unbounded budget with early stopping
// off) — in single-engine and sharded mode, with and without the
// journal. Close must not panic; the last published snapshot must be
// the drained one or the last good one; a recorded journal must still
// replay-verify.
func TestShutdownMatrix(t *testing.T) {
	p, err := randnet.GenerateSparse(randnet.Config{Nodes: 24, Layers: 4, Commodities: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	phases := []struct {
		name string
		opts server.Options
		wait time.Duration // how long the server runs before Close
	}{
		{"debounce", server.Options{Debounce: time.Hour}, 50 * time.Millisecond},
		{"iterate", server.Options{Debounce: -1, MaxIters: 50_000_000, StationaryTol: -1}, 100 * time.Millisecond},
	}
	for _, ph := range phases {
		for _, shards := range []int{0, 4} {
			for _, journaled := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/journal=%v", ph.name, shards, journaled)
				t.Run(name, func(t *testing.T) {
					opts := ph.opts
					opts.Shards = shards
					opts.PlacementSalt = 7
					opts.Eta = 0.005
					opts.Logf = func(string, ...any) {}
					dir := filepath.Join(t.TempDir(), "journal")
					var jw *journal.Writer
					if journaled {
						if jw, err = journal.Create(dir, journal.Options{Fsync: journal.FsyncNever}); err != nil {
							t.Fatal(err)
						}
						opts.Journal = jw
					}
					s, err := server.New(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					time.Sleep(ph.wait)
					before := s.Snapshot()
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					after := s.Snapshot()
					if after == nil {
						t.Fatal("no snapshot published: the drain must publish what it has")
					}
					if !after.Drained && after != before {
						t.Errorf("final snapshot (generation %d) is neither drained nor the last good one", after.Generation)
					}
					if len(after.Commodities) != len(p.Commodities) {
						t.Errorf("drained snapshot reports %d commodities, want %d", len(after.Commodities), len(p.Commodities))
					}
					if jw == nil {
						return
					}
					if err := jw.Close(); err != nil {
						t.Fatal(err)
					}
					rep, err := replay.Verify(dir, replay.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Ok() {
						t.Errorf("journal does not replay-verify: %+v", rep.Mismatches)
					}
				})
			}
		}
	}
}
