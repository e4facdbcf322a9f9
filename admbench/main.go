// Command admbench is the admission-decision benchmark. It drives the
// admission server (internal/server, in process, over loopback HTTP)
// with one of three seeded open-loop workloads, checks every published
// decision, and prints the end-to-end metrics — or, with --trace 1,
// the per-layer metrics of a traced run and a replay of its decisions.
// The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it from the repository root (see README.md in this directory):
//
//	bash admbench/run.sh --workload rate_churn_j10k --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupBoots is how many times a run boots the server to measure
// setup_s; the last boot is the one the window drives.
const setupBoots = 5

// replayBudget bounds the traced replay's wall time.
const replayBudget = 40 * time.Second

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: rate_churn_j10k, arrival_churn_j1k or paper_diurnal")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	client := flag.String("client", "", "internal: run as the load generator against this base URL")
	closed := flag.Int("closed", 0, "internal: with --client, also run the closed-loop phase")
	flag.Parse()
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "admbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	t0 := time.Now()
	w, err := generate(*name, *seed, window)
	if err != nil {
		fmt.Fprintln(os.Stderr, "admbench:", err)
		return 2
	}
	if *client != "" {
		// Two goroutines pace the load; one P keeps the generator from
		// spinning idle threads on the CPUs the server runs on.
		runtime.GOMAXPROCS(1)
		if err := json.NewEncoder(os.Stdout).Encode(clientRun(w, *client, *closed == 1, *traceMode == 1)); err != nil {
			fmt.Fprintln(os.Stderr, "admbench:", err)
			return 1
		}
		return 0
	}
	fmt.Printf("admbench workload=%s seed=%d window=%v trace=%d GOMAXPROCS=%d cpu=%q %s\n",
		w.Name, *seed, window, *traceMode, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Printf("inputs: %d commodities at boot, %d window writes, %d reads, %d closed-loop writes, generated in %.2fs\n",
		len(w.Initial.Commodities), len(w.Writes), len(w.Reads), len(w.Closed), time.Since(t0).Seconds())
	fmt.Printf("inputs_sha256 %s\n", w.Hash)

	dir, err := workDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "admbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	listed, err := listedMetrics(*traceMode == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "admbench:", err)
		return 2
	}
	out := newResult(listed)
	if *traceMode == 0 {
		err = measure(w, window, dir, out)
	} else {
		err = traced(w, window, dir, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "admbench:", err)
		return 1
	}
	line, err := json.Marshal(out.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "admbench:", err)
		return 1
	}
	for _, f := range out.Failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	fmt.Println(string(line))
	if len(out.Failures) > 0 {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: every metric the report printed, the
// ones the final JSON line carries, and the failed checks.
type result struct {
	Tally    tally
	Listed   []string // BENCHMARK.json's metrics for this mode, in order
	Metrics  map[string]metric
	Failures []string
}

func newResult(listed []string) *result {
	return &result{Listed: listed, Metrics: map[string]metric{}}
}

// put records a metric and prints its report line, starred when the
// JSON line carries it; note gives the sample count and percentile
// where they apply.
func (r *result) put(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	mark := " "
	for _, n := range r.Listed {
		if n == name {
			mark = "*"
		}
	}
	fmt.Printf("%s %-40s %14.6g %-6s %s\n", mark, name, v, unit, note)
}

// putTail reports a distribution as <prefix>_p50_ms, <prefix>_p90_ms
// and <prefix>_p99_ms.
func (r *result) putTail(prefix string, samples []float64) {
	t := summarize(samples)
	r.put(prefix+"_p50_ms", t.P50, "ms", fmt.Sprintf("n=%d, deciles %s", t.N, deciles(samples)))
	r.put(prefix+"_p90_ms", t.P90, "ms", fmt.Sprintf("n=%d", t.N))
	r.put(prefix+"_p99_ms", t.Tail, "ms", fmt.Sprintf("n=%d, reported percentile p%.4g", t.N, t.Percentile))
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// final is the JSON line: the listed metrics and the check outcome. A
// listed metric the run did not produce is a failed check.
func (r *result) final() map[string]any {
	m := make(map[string]metric, len(r.Listed))
	for _, n := range r.Listed {
		v, ok := r.Metrics[n]
		if !ok {
			r.fail("metric %s listed in %s was not measured", n, specFile)
			continue
		}
		m[n] = v
	}
	attempted := r.Tally.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{
		"correct":   len(r.Failures) == 0,
		"attempted": attempted,
		"failed":    r.Tally.Failed,
		"metrics":   m,
	}
}

// specFile lists the metrics the JSON line carries: end_to_end for an
// untraced run, per_layer for a traced one.
const specFile = "BENCHMARK.json"

func listedMetrics(traced bool) ([]string, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// deciles formats p10 … p90 of the samples.
func deciles(samples []float64) string {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := ""
	for k := 1; k <= 9 && len(s) > 0; k++ {
		out += fmt.Sprintf(" %.3g", s[k*len(s)/10])
	}
	return "[" + strings.TrimSpace(out) + "]"
}

// cpuModel reads the CPU model name for the report header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
