// Command perfbench is the repository's benchmark: one command that runs
// a workload against the simulator or the prediction service, checks
// that the outputs are correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around every call it makes into the program and reports
// per-layer metrics instead (see NOTES.md for the workloads, the metrics
// and which layer should move which end-to-end number).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-text --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --write-digests 256 > perfbench/digests.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workers is the scheduler width: the box the benchmark is tuned on has
// two CPUs, and one process never drives more than nproc.
const workers = 2

// clients is how many serve clients run sessions at once. One client
// leaves a CPU for the server's goroutines and the garbage collector, so
// an ingest's latency is the service's rather than a wait for a CPU. Two
// clients on two CPUs make it depend on how their requests overlap: on
// the 2-vCPU box the benchmark was tuned on, the ingest p50 of 1-second
// windows within one run then spreads from 0.59 to 0.77 ms, against 0.64
// to 0.70 ms with one client.
const clients = 1

// errChecks fails a run whose outputs were wrong, after its result line
// is printed.
var errChecks = errors.New("output checks failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // scratch space for journals and span files
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-text, serve-columnar or sim-sweep")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for journals and span files")
	writeDigests := fs.Int("write-digests", 0, "print the sim-sweep digests of seeds [0, n) as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeDigests > 0 {
		return writeSweepDigests(out, *writeDigests)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := config{workload: *workload, seed: *seed, seconds: float64(*seconds), traced: *trace == 1, dir: work}

	var rep *report
	switch cfg.workload {
	case serveText.name:
		rep, err = runServe(cfg, serveText)
	case serveColumnar.name:
		rep, err = runServe(cfg, serveColumnar)
	case "sim-sweep":
		// The reference pass runs once the measured sweep is unreachable,
		// so it reuses that memory.
		if rep, err = runSweep(cfg); err == nil {
			err = checkReference(rep)
		}
	default:
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	if !cfg.traced {
		rep.set("max_rss_mb", maxRSSMB(), "MB")
	}
	env := environment(cfg)
	if cfg.traced {
		path := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, env, rep.spans); err != nil {
			return err
		}
		rep.notef("spans: %d written to %s", len(rep.spans), path)
	}
	if err := rep.print(out, env); err != nil {
		return err
	}
	if len(rep.problems) > 0 {
		return errChecks
	}
	return nil
}

// warmup is how long a run exercises the program before it measures: a
// tenth of the measured time, 0.5 to 2 seconds.
func (c config) warmup() time.Duration { return secs(min(max(c.seconds/10, 0.5), 2)) }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// environment records what the numbers were measured on.
func environment(cfg config) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run found: metrics in print order, operation
// counts, failed output checks, and human-readable notes.
type report struct {
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	checked   int // output checks that ran (a run that checked nothing is not correct)
	problems  []string
	notes     []string
	spans     []span
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one output check: a nil error passes.
func (r *report) check(what string, err error) {
	r.checked++
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// trips records that a check rejects an injected wrong answer; a check
// that accepts one could not have caught a real one.
func (r *report) trips(what string, err error) {
	if err == nil {
		r.problems = append(r.problems, fmt.Sprintf("%s: accepted an injected wrong answer", what))
	}
}

func (r *report) print(out io.Writer, env map[string]any) error {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "env %s=%v\n", k, env[k])
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(out, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	fmt.Fprintf(out, "operations: attempted=%d failed=%d failed_share=%.6f\n", r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
	fmt.Fprintf(out, "checks: %d run, %d failed\n", r.checked, len(r.problems))
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value", n)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.checked > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// maxRSSMB is the peak resident set of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time (user + system) this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mix derives an independent 64-bit seed for item i of the input set
// (splitmix64 finalizer), so every input is a pure function of --seed.
func mix(seed uint64, i int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(v []float64) float64 { return percentile(v, 50) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// pct renders a percentile with its sample count.
func pct(name string, v []float64, p float64) string {
	return name + "=" + strconv.FormatFloat(percentile(v, p), 'f', 3, 64) + "ms (n=" + strconv.Itoa(len(v)) + ")"
}
