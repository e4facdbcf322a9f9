package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// The load generator runs in a child process (this binary with
// --client), so its own network waits are not scheduled by the Go
// runtime of the process under test, as for a real client. It
// regenerates the workload from the same flags, paces the writes and
// reads, and prints one clientResult as JSON.

// wireTiming is a timing with wall-clock nanoseconds, comparable
// across the two processes.
type wireTiming struct {
	Due, Sent, Done int64
	Rev             int64  `json:",omitempty"`
	Err             string `json:",omitempty"`
}

type wireSpan struct {
	Name       string
	Start, End int64
}

// clientResult is everything the load generator observed.
type clientResult struct {
	Start                 int64 // the window's start
	Writes, Reads, Closed []wireTiming
	ClosedSecs            float64
	Spans                 []wireSpan // HTTP calls, when traced
}

func toWire(t timing, rev int64) wireTiming {
	wt := wireTiming{Due: t.Due.UnixNano(), Sent: t.Sent.UnixNano(), Done: t.Done.UnixNano(), Rev: rev}
	if t.Err != nil {
		wt.Err = t.Err.Error()
	}
	return wt
}

func (wt wireTiming) timing() timing {
	t := timing{Due: time.Unix(0, wt.Due), Sent: time.Unix(0, wt.Sent), Done: time.Unix(0, wt.Done)}
	if wt.Err != "" {
		t.Err = fmt.Errorf("%s", wt.Err)
	}
	return t
}

// clientRun drives the window's open-loop writes and reads, one
// connection each, and then, with closed set, the closed-loop writes.
func clientRun(w *workload, base string, closed, traced bool) *clientResult {
	wc, rc := newClient(), newClient()
	defer wc.CloseIdleConnections()
	defer rc.CloseIdleConnections()
	var tr *tracer
	if traced {
		tr = &tracer{}
	}

	start := time.Now().Add(10 * time.Millisecond)
	res := &clientResult{Start: start.UnixNano()}
	dues := make([]time.Duration, len(w.Writes))
	for i := range w.Writes {
		dues[i] = w.Writes[i].Due
	}
	revs := make([]int64, len(w.Writes))
	var writes, reads []timing
	var load sync.WaitGroup
	load.Add(2)
	go func() {
		defer load.Done()
		writes = openLoop(wallClock{}, start, dues, func(i int) error {
			m := &w.Writes[i]
			id := tr.start("http."+m.Kind, 0)
			rev, err := send(wc, base, m)
			tr.end(id)
			revs[i] = rev
			return err
		})
	}()
	go func() {
		defer load.Done()
		reads = openLoop(wallClock{}, start, w.Reads, func(int) error {
			id := tr.start("http.get_admitted", 0)
			defer tr.end(id)
			return read(rc, base)
		})
	}()
	load.Wait()
	for i, t := range writes {
		res.Writes = append(res.Writes, toWire(t, revs[i]))
	}
	for _, t := range reads {
		res.Reads = append(res.Reads, toWire(t, 0))
	}

	if closed {
		t0 := time.Now()
		for i := range w.Closed {
			t := timing{Due: time.Now()}
			t.Sent = t.Due
			rev, err := send(wc, base, &w.Closed[i])
			t.Done, t.Err = time.Now(), err
			res.Closed = append(res.Closed, toWire(t, rev))
		}
		res.ClosedSecs = time.Since(t0).Seconds()
	}
	if tr != nil {
		for _, s := range tr.spans {
			res.Spans = append(res.Spans, wireSpan{Name: s.Name, Start: s.Start.UnixNano(), End: s.End.UnixNano()})
		}
	}
	return res
}

// runClient starts the load generator against base, waits for it to
// finish, and returns what it observed.
func runClient(w *workload, base string, window time.Duration, closed, traced bool) (*clientResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+3*decisionTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--workload", w.Name, "--seed", strconv.FormatInt(w.Seed, 10),
		"--seconds", strconv.Itoa(int(window/time.Second)),
		"--trace", strconv.Itoa(b2i(traced)), "--closed", strconv.Itoa(b2i(closed)),
		"--client", base)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	res := &clientResult{}
	if err := json.Unmarshal(bytes.TrimSpace(out), res); err != nil {
		return nil, fmt.Errorf("load generator output: %w", err)
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
