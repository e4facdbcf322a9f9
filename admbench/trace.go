package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into the program. Parent 0
// is the root; ids start at 1.
type span struct {
	Name       string
	ID, Parent int
	Start, End time.Time
}

// tracer keeps harness-side spans in memory. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site. The
// live run's writer, reader and watcher share one tracer.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a finished root span timed elsewhere (the load
// generator's HTTP calls).
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Start: start, End: end})
}

// rename relabels an open span once the call it covers has shown which
// path it took (a warm start that fell back to cold).
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name = name
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one parent never overlap here: every
// span is opened and closed on the goroutine that made the call.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End.Sub(s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End.Sub(s.Start)
		}
	}
	return self
}

// layerStat aggregates the self time of every span with one name.
type layerStat struct {
	Calls int
	Total time.Duration
}

// meanMs is the mean self time per call in milliseconds, 0 with no calls.
func (l layerStat) meanMs() float64 {
	if l.Calls == 0 {
		return 0
	}
	return ms(l.Total) / float64(l.Calls)
}

func byLayer(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := map[string]layerStat{}
	for i, s := range spans {
		l := out[s.Name]
		l.Calls++
		l.Total += self[i]
		out[s.Name] = l
	}
	return out
}

// sortedNames lists the map's keys in order, for stable report output.
func sortedNames(m map[string]layerStat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
