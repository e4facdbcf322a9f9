package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

const (
	// bootTimeout bounds server.New → first snapshot.
	bootTimeout = 60 * time.Second
	// decisionTimeout is how long after its due time a mutation's
	// decision may take before it counts as failed.
	decisionTimeout = 30 * time.Second
)

// booted is one server instance under test with its journal.
type booted struct {
	s     *server.Server
	jw    *journal.Writer
	dir   string
	setup time.Duration // server.New → first published snapshot
	logs  *logSink
}

// logSink collects the server's diagnostics. Expected cold-start notes
// are only counted; anything else is kept for the report.
type logSink struct {
	mu    sync.Mutex
	cold  int
	other []string
}

func (l *logSink) logf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	if strings.Contains(msg, "cold start (expected)") {
		l.cold++
		return
	}
	if len(l.other) < 20 {
		l.other = append(l.other, msg)
	}
}

// boot starts a server on the workload's boot problem and waits for
// its first snapshot. dir holds the journal, when the workload has one.
func boot(w *workload, dir string) (*booted, error) {
	b := &booted{logs: &logSink{}}
	opts := w.Opts
	opts.Logf = b.logs.logf
	if w.Journal {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncInterval})
		if err != nil {
			return nil, err
		}
		b.jw, b.dir, opts.Journal = jw, dir, jw
	}
	start := time.Now()
	s, err := server.New(w.Initial, opts)
	if err != nil {
		b.closeJournal()
		return nil, err
	}
	b.s = s
	if _, err := s.WaitForGeneration(1, bootTimeout); err != nil {
		b.close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	b.setup = time.Since(start)
	return b, nil
}

func (b *booted) closeJournal() error {
	if b.jw == nil {
		return nil
	}
	err := b.jw.Close()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// close stops the solver (which must be quiet: every accepted mutation
// answered) and then seals and deletes the journal.
func (b *booted) close() error {
	if b.s != nil {
		b.s.Close()
	}
	return b.closeJournal()
}

// pub is one published snapshot as the watcher saw it.
type pub struct {
	At           time.Time
	Rev          int64
	Utility      float64
	SolveSeconds float64
	Converged    bool
	Iterations   int
}

// sent is one write the harness sent, in send order.
type sent struct {
	M      *mutation
	Rev    int64 // 0 when refused
	Due    time.Time
	Window bool // false for the closed-loop phase
}

// liveRun is everything observed while driving one server.
type liveRun struct {
	Start, End time.Time // the measured window
	Writes     []timing  // window writes, schedule order
	Reads      []timing
	Sent       []sent
	Pubs       []pub // every generation observed, in order
	Closed     []timing
	ClosedSecs float64
	Final      *server.Snapshot
	Violations []string // snapshot checks that failed
	Skipped    int      // generations published between two polls
}

// newClient is one keep-alive connection's worth of HTTP client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * decisionTimeout,
	}
}

// send issues one write and returns the revision the server assigned.
func send(c *http.Client, base string, m *mutation) (int64, error) {
	req, err := http.NewRequest(m.Method, base+m.Path, bytes.NewReader(m.Body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s %s: %s: %s", m.Method, m.Path, resp.Status, bytes.TrimSpace(body))
	}
	var out struct {
		Rev int64 `json:"rev"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Rev <= 0 {
		return 0, fmt.Errorf("%s %s: no revision in %q", m.Method, m.Path, body)
	}
	return out.Rev, nil
}

// read issues one GET /v1/admitted and drains the body.
func read(c *http.Client, base string) error {
	resp, err := c.Get(base + "/v1/admitted")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/admitted: %s", resp.Status)
	}
	return nil
}

// checkSnapshot is the per-snapshot output check: feasible, finite
// utility, and no commodity admitted above its offered rate.
func checkSnapshot(snap *server.Snapshot) error {
	if !snap.Feasible {
		over, worst, most := 0, "", 0.0
		for _, u := range snap.Usage {
			if u.Utilization > 1 {
				over++
			}
			if u.Utilization > most {
				worst, most = u.Name, u.Utilization
			}
		}
		return fmt.Errorf("generation %d: not feasible: %d resources over capacity, worst %s at %.3g× capacity",
			snap.Generation, over, worst, most)
	}
	if !finite(snap.Utility) {
		return fmt.Errorf("generation %d: utility %v", snap.Generation, snap.Utility)
	}
	for _, c := range snap.Commodities {
		if !finite(c.Admitted) || c.Admitted > c.Offered*(1+1e-9)+1e-12 {
			return fmt.Errorf("generation %d: %s admitted %v of offered %v", snap.Generation, c.Name, c.Admitted, c.Offered)
		}
	}
	return nil
}

// drive runs the measured window against a booted server over HTTP:
// the load generator's open-loop writer and reader on one connection
// each, and a watcher here that records every published generation.
// With closed set the generator then runs the closed-loop phase. drive
// returns once every accepted write is answered or decisionTimeout has
// passed. tr, when non-nil, records a span around every call the
// harness makes into the server.
func drive(w *workload, b *booted, window time.Duration, closed bool, tr *tracer) (*liveRun, error) {
	hs, err := b.s.Serve("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer hs.Close()

	run := &liveRun{}
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		run.watch(b.s, tr, stopWatch)
	}()
	res, err := runClient(w, "http://"+hs.Addr(), window, closed, tr != nil)
	if err != nil {
		close(stopWatch)
		watch.Wait()
		return nil, err
	}
	run.Start = time.Unix(0, res.Start)
	run.End = run.Start.Add(window)
	for i, wt := range res.Writes {
		t := wt.timing()
		run.Writes = append(run.Writes, t)
		run.Sent = append(run.Sent, sent{M: &w.Writes[i], Rev: wt.Rev, Due: t.Due, Window: true})
	}
	for _, wt := range res.Reads {
		run.Reads = append(run.Reads, wt.timing())
	}
	for i, wt := range res.Closed {
		t := wt.timing()
		run.Closed = append(run.Closed, t)
		run.Sent = append(run.Sent, sent{M: &w.Closed[i], Rev: wt.Rev, Due: t.Due})
	}
	run.ClosedSecs = res.ClosedSecs
	for _, s := range res.Spans {
		tr.add(s.Name, time.Unix(0, s.Start), time.Unix(0, s.End))
	}

	// Wait until the last accepted write is answered.
	var last int64
	for _, s := range run.Sent {
		if s.Rev > last {
			last = s.Rev
		}
	}
	deadline := time.Now().Add(decisionTimeout)
	for time.Now().Before(deadline) {
		id := tr.start("server.Snapshot", 0)
		snap := b.s.Snapshot()
		tr.end(id)
		if snap.Rev >= last {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopWatch)
	watch.Wait()
	run.Final = b.s.Snapshot()
	return run, nil
}

// watch records every generation the server publishes until stop is
// closed, and checks each one.
func (run *liveRun) watch(s *server.Server, tr *tracer, stop <-chan struct{}) {
	var last int64
	for {
		select {
		case <-stop:
			return
		default:
		}
		id := tr.start("server.WaitForGeneration", 0)
		snap, err := s.WaitForGeneration(last+1, 50*time.Millisecond)
		tr.end(id)
		if err != nil || snap == nil || snap.Generation <= last {
			continue
		}
		now := time.Now()
		run.Skipped += int(snap.Generation - last - 1)
		last = snap.Generation
		run.Pubs = append(run.Pubs, pub{
			At: now, Rev: snap.Rev, Utility: snap.Utility,
			SolveSeconds: snap.SolveSeconds, Converged: snap.Converged,
			Iterations: snap.Iterations,
		})
		if err := checkSnapshot(snap); err != nil && len(run.Violations) < 10 {
			run.Violations = append(run.Violations, err.Error())
		}
	}
}

// tally counts every write and read the run sent, failed or not.
func (run *liveRun) tally(t *tally) {
	for _, set := range [][]timing{run.Writes, run.Reads, run.Closed} {
		for _, tm := range set {
			t.add(tm.Err != nil)
		}
	}
}

// answer returns the first observed publication whose Rev covers rev,
// or false when none did.
func (run *liveRun) answer(rev int64) (pub, bool) {
	k := sort.Search(len(run.Pubs), func(i int) bool { return run.Pubs[i].Rev >= rev })
	if k == len(run.Pubs) {
		return pub{}, false
	}
	return run.Pubs[k], true
}

// workDir is the per-run scratch directory inside the checkout.
func workDir() (string, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
