package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// gridSpecs is the Figure 2 equal-cost grid: bi-mode from cache-resident
// banks up to b=17, whose packed footprint (2^c + 2^b = 2^18) reaches the
// scheduler's interleaved-lanes threshold (see lanes.go), and single-PHT
// gshare with twice the bank entries, the placement Figures 2-4 use.
var gridSpecs = []string{
	"bimode:b=9", "bimode:b=11", "bimode:b=13", "bimode:b=15", "bimode:b=17",
	"gshare:i=10,h=10", "gshare:i=12,h=12", "gshare:i=14,h=14", "gshare:i=16,h=16", "gshare:i=18,h=18",
}

// observeSpecs is the Section 4 pair: bi-mode against gshare at equal
// cost. Both are grid specs, so their Observe counts must match the grid.
var observeSpecs = [2]string{"bimode:b=11", "gshare:i=12,h=12"}

// sweep is the opened sim-sweep input: the 14 BMC1 traces and the grid
// jobs over them, spec-major so eligible jobs sit side by side.
type sweep struct {
	data     [][]byte // the encoded traces
	cols     []*trace.Columnar
	jobs     []sim.Job
	branches int // simulated per RunAll
	observed int // simulated per Observe pass
	sched    *sim.Scheduler
}

// newSweep validates every trace with OpenColumnar and builds every grid
// predictor once: the sim-sweep set-up.
func newSweep(data [][]byte) (*sweep, error) {
	sw := &sweep{data: data, sched: sim.NewScheduler(workers)}
	for _, d := range data {
		c, err := trace.OpenColumnar(d)
		if err != nil {
			return nil, err
		}
		sw.cols = append(sw.cols, c)
		sw.observed += len(observeSpecs) * c.Len()
	}
	for _, spec := range gridSpecs {
		for _, c := range sw.cols {
			// Built once here so set-up covers predictor construction;
			// RunAll builds its own through Make.
			if _, err := zoo.New(spec); err != nil {
				return nil, err
			}
			sw.branches += c.Len()
			sw.jobs = append(sw.jobs, sim.Job{Make: func() predictor.Predictor { return zoo.MustNew(spec) }, Source: c})
		}
	}
	return sw, nil
}

// passResult is one grid pass plus one Observe pass.
type passResult struct {
	cells     []sim.Result
	observe   []*sim.Report // index w*2 + s over cols x observeSpecs
	runAll    time.Duration
	runAllCPU time.Duration // process CPU time (user + system) during RunAll
	obsMS     []float64     // per sim.Observe call
	failed    int
}

func (sw *sweep) pass(tr *tracer, id uint64) passResult {
	root := tr.newID()
	start := tr.since()
	var pr passResult
	// Each phase starts from a collected heap. RunAll leaves its
	// materialized traces (480 MB) behind as garbage, and collecting them
	// during the Observe calls would slow whichever calls the collector
	// overlaps, a different set in every run.
	runtime.GC()
	tr.do("sim.Scheduler.RunAll", root, id, int64(sw.branches), func(uint64) {
		c0, t0 := cpuTime(), time.Now()
		pr.cells = sw.sched.RunAll(sw.jobs)
		pr.runAll, pr.runAllCPU = time.Since(t0), cpuTime()-c0
	})
	runtime.GC()
	// One Observe call at a time: a call's time is then its own, not
	// also the wait for a CPU that a second call in flight holds.
	n := len(sw.cols) * len(observeSpecs)
	pr.observe = make([]*sim.Report, n)
	pr.obsMS = make([]float64, n)
	for k := range n {
		col := sw.cols[k/len(observeSpecs)]
		p, err := zoo.New(observeSpecs[k%len(observeSpecs)])
		if err != nil {
			pr.failed++
			continue
		}
		tr.do("sim.Observe", root, id, int64(col.Len()), func(uint64) {
			t0 := time.Now()
			pr.observe[k] = sim.Observe(p, col, sim.ObserveOptions{})
			pr.obsMS[k] = ms(time.Since(t0))
		})
	}
	for _, c := range pr.cells {
		if c.Err != nil {
			pr.failed++
		}
	}
	tr.add(span{ID: root, Session: id, Name: "bench.pass", Start: start, End: tr.since()})
	return pr
}

func (pr passResult) rate(sw *sweep) float64 { return float64(sw.branches) / pr.runAll.Seconds() }

// sweepSetupReps is how often set-up is repeated; setup_s is the median.
const sweepSetupReps = 15

func runSweep(cfg config) (*report, error) {
	rep := newReport()
	data, err := makeSweepTraces(cfg.seed)
	if err != nil {
		return nil, err
	}
	var sw *sweep
	var setup []float64
	for i := 0; i < sweepSetupReps; i++ {
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		if sw, err = newSweep(data); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var passes atomic.Uint64
	first := sw.pass(nil, passes.Add(1)) // warm-up; its results are the run's reference
	for deadline := time.Now().Add(cfg.warmup()); time.Now().Before(deadline); {
		sw.pass(nil, passes.Add(1))
	}

	var measured []passResult
	if !cfg.traced {
		for deadline := time.Now().Add(secs(cfg.seconds)); time.Now().Before(deadline); {
			measured = append(measured, sw.pass(nil, passes.Add(1)))
		}
		// The figures pool the whole run: on the 2-vCPU box the benchmark
		// was tuned on, the host's speed moves by up to a third from one
		// pass to the next, and a run has only 8 to 10 passes. Within one
		// pass the median Observe call falls between two workload sizes,
		// so a pass's own median jumps from one size to the other when a
		// single call slows; the median of all the run's calls moves only
		// as far as the calls do.
		var runAll time.Duration
		var rates, obs []float64
		for _, pr := range measured {
			runAll += pr.runAll
			rates = append(rates, pr.rate(sw))
			obs = append(obs, pr.obsMS...)
		}
		rep.set("setup_s", median(setup), "s")
		rep.set("branches_per_s", float64(sw.branches*len(measured))/runAll.Seconds(), "branches/s")
		rep.set("request_p50_ms", percentile(obs, 50), "ms")
		rep.set("request_p95_ms", percentile(obs, 95), "ms")
		rep.notef("sweep: %d passes of %d jobs, %d branches each; RunAll mean %.1f ms, median pass %.3g branches/s",
			len(measured), len(sw.jobs), sw.branches, runAll.Seconds()*1e3/float64(len(measured)), median(rates))
		rep.notef("observe: %s %s; %.1f Mbranches/s per call overall", pct("call_p50", obs, 50),
			pct("call_p95", obs, 95), float64(sw.observed*len(measured))/sum(obs)/1e3)
		rep.notef("setup: median of %d = %.3f ms", len(setup), median(setup)*1e3)
	} else {
		// Untraced and traced passes alternate, so the tracing overhead is
		// measured under the same conditions as the traced numbers.
		tr := newTracer()
		rates := map[bool][]float64{}
		deadline := time.Now().Add(secs(cfg.seconds))
		for on := false; time.Now().Before(deadline) || len(rates[true]) == 0; on = !on {
			var passTr *tracer
			if on {
				passTr = tr
			}
			pr := sw.pass(passTr, passes.Add(1))
			rates[on] = append(rates[on], pr.rate(sw))
			measured = append(measured, pr)
		}
		rep.set("tracing.overhead_share", 1-median(rates[true])/median(rates[false]), "ratio")
		schedMetrics(rep, measured)
		if err := simProbes(rep, tr, sw); err != nil {
			return nil, err
		}
		if err := serveCensus(rep, tr, cfg); err != nil {
			return nil, err
		}
		rep.spans = tr.all()
		layerMetrics(rep, rep.spans)
	}
	for _, pr := range measured {
		rep.attempted += len(pr.cells) + len(pr.observe)
		rep.failed += pr.failed
	}
	checkSweep(rep, sw, cfg.seed, first, measured)
	return rep, nil
}

// kernelSpecs are the kernel probes: each engine tier at a cache-resident
// and a cache-missing table size.
var kernelSpecs = []struct{ metric, spec string }{
	{"kernel.bimode_b10_ns_per_branch", "bimode:b=10"},
	{"kernel.bimode_b18_ns_per_branch", "bimode:b=18"},
	{"kernel.gshare_i12_ns_per_branch", "gshare:i=12,h=12"},
	{"kernel.gshare_i20_ns_per_branch", "gshare:i=20,h=20"},
}

// simProbes times each simulator layer on its own over the sweep traces:
// BMC1 validation and block decode, materialization, the batched kernels,
// the generic predict/update loop serve runs, Observe against Run, and
// the grid jobs run one by one through the pool (the jobs' standalone
// busy time). It works through one trace at a time, so only one
// materialized trace is alive at once.
func simProbes(rep *report, tr *tracer, sw *sweep) error {
	var decodeNS, matNS, recs, genericNS, obsNS, refNS float64
	kernelNS := make([]float64, len(kernelSpecs))
	var busy time.Duration
	for i, c := range sw.cols {
		runtime.GC() // the previous trace's garbage goes before this one's is made
		var data *trace.Columnar
		var err error
		tr.do("trace.OpenColumnar", 0, 0, 0, func(uint64) {
			t0 := time.Now()
			data, err = trace.OpenColumnar(sw.data[i])
			decodeNS += float64(time.Since(t0))
		})
		if err != nil {
			return err
		}
		n := 0
		tr.do("trace.BlockStream", 0, 0, int64(c.Len()), func(uint64) {
			t0 := time.Now()
			bs := data.BlockStream()
			for {
				b, e := bs.NextBlock()
				if e != nil {
					err = e
				}
				if b == nil {
					break
				}
				n += len(b)
			}
			decodeNS += float64(time.Since(t0))
		})
		if err != nil || n != c.Len() {
			return fmt.Errorf("decoding %s: %d of %d records: %v", c.Name(), n, c.Len(), err)
		}
		var m *trace.Memory
		tr.do("trace.MaterializeContext", 0, 0, int64(n), func(uint64) {
			t0 := time.Now()
			m, err = trace.MaterializeContext(context.Background(), data)
			matNS += float64(time.Since(t0))
		})
		if err != nil {
			return err
		}
		recs += float64(n)

		// timed runs f under span name with a fresh predictor for spec,
		// built outside the timed call, and returns the call's ns.
		timed := func(name, spec string, f func(predictor.Predictor, *trace.Memory)) float64 {
			p := zoo.MustNew(spec)
			var ns float64
			tr.do(name, 0, 0, int64(n), func(uint64) {
				t0 := time.Now()
				f(p, m)
				ns = float64(time.Since(t0))
			})
			return ns
		}
		run := func(p predictor.Predictor, m *trace.Memory) { sim.Run(p, m) }
		for k, ks := range kernelSpecs {
			kernelNS[k] += timed("sim.Run", ks.spec, run)
		}
		genericNS += timed("sim.RunGeneric", "bimode:b=11", func(p predictor.Predictor, m *trace.Memory) { sim.RunGeneric(p, m) })
		for _, spec := range observeSpecs {
			obsNS += timed("sim.Observe", spec, func(p predictor.Predictor, m *trace.Memory) { sim.Observe(p, m, sim.ObserveOptions{}) })
			refNS += timed("sim.Run", spec, run)
		}

		// Busy time: this trace's grid jobs one by one through the same
		// pool width (jobs are spec-major, so job g*len(cols)+i).
		jobBusy := make([]time.Duration, len(gridSpecs))
		tr.do("sim.Scheduler.Do", 0, 0, int64(n*len(gridSpecs)), func(doID uint64) {
			sw.sched.Do(len(gridSpecs), func(g int) error {
				p := sw.jobs[g*len(sw.cols)+i].Make()
				tr.do("sim.Run", doID, 0, int64(n), func(uint64) {
					t0 := time.Now()
					sim.Run(p, m)
					jobBusy[g] = time.Since(t0)
				})
				return nil
			})
		})
		for _, d := range jobBusy {
			busy += d
		}
	}
	rep.set("trace.bmc1_decode_ns_per_rec", decodeNS/recs, "ns")
	rep.set("trace.materialize_ns_per_rec", matNS/recs, "ns")
	for k, ks := range kernelSpecs {
		rep.set(ks.metric, kernelNS[k]/recs, "ns")
	}
	rep.set("kernel.predict_update_ns_per_branch", genericNS/recs, "ns")
	rep.set("sim.observe_ns_per_branch", obsNS/recs/float64(len(observeSpecs)), "ns")
	rep.set("sim.observe_overhead_x", obsNS/refNS, "x")
	rep.set("sim.jobs_busy_s", busy.Seconds(), "s")
	return eligibleShare(rep, sw)
}

// eligibleShare reports the share of grid branches in jobs the program's
// lane rule makes eligible for the interleaved dispatch.
func eligibleShare(rep *report, sw *sweep) error {
	rule, err := readLaneRule(laneSource)
	if errors.Is(err, errNoLanes) {
		rep.notef("lanes: %v; no job is eligible", err)
		rep.set("sim.interleave_eligible_share", 0, "ratio")
		return nil
	}
	if err != nil {
		return err
	}
	eligible := 0
	var specs []string
	for j, job := range sw.jobs {
		bm, ok := job.Make().(*core.BiMode)
		if !ok {
			continue
		}
		ok, err := rule.eligible(bm.Config())
		if err != nil {
			return err
		}
		if ok {
			eligible += sw.cols[j%len(sw.cols)].Len()
			if spec := gridSpecs[j/len(sw.cols)]; !slices.Contains(specs, spec) {
				specs = append(specs, spec)
			}
		}
	}
	rep.notef("lanes: footprint %s >= %s (%s) holds for %v", rule.footprint, rule.minBytes, laneSource, specs)
	rep.set("sim.interleave_eligible_share", float64(eligible)/float64(sw.branches), "ratio")
	return nil
}

// censusPasses is how many traced grid passes a serve workload's census
// runs after one untraced warm-up pass.
const censusPasses = 2

// simCensus gives a serve workload's traced run the simulator layers it
// never reaches: traced grid passes and the simulator probes, on this
// seed's sweep traces.
func simCensus(rep *report, tr *tracer, seed uint64) error {
	data, err := makeSweepTraces(seed)
	if err != nil {
		return err
	}
	sw, err := newSweep(data)
	if err != nil {
		return err
	}
	var passes []passResult
	for i := 0; i <= censusPasses; i++ {
		var passTr *tracer
		if i > 0 {
			passTr = tr
		}
		pr := sw.pass(passTr, 0)
		if pr.failed > 0 {
			rep.check("sim census pass", fmt.Errorf("%d jobs failed", pr.failed))
		}
		if i > 0 {
			passes = append(passes, pr)
		}
	}
	schedMetrics(rep, passes)
	return simProbes(rep, tr, sw)
}

// censusSessions is how many serve-text sessions the sim-sweep traced run
// drives, so the serve layers have numbers there too.
const censusSessions = 40

// serveCensus gives the sim-sweep traced run the serve layers it never
// reaches: a count-bounded serve-text loop and the serve probes.
func serveCensus(rep *report, tr *tracer, cfg config) error {
	traces, err := makeSessionTraces(cfg.seed, serveText.spec)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	in, err := startInstance(filepath.Join(cfg.dir, "census"), true, hc)
	if err != nil {
		return err
	}
	defer in.close()
	var next atomic.Uint64
	st, _ := loop(hc, in, serveText, traces, tr, time.Now().Add(time.Minute), censusSessions, censusSessions, &next)
	serveProbes(rep, tr, hc, in, serveText, traces)
	routeMetrics(rep, tr.all(), st)
	routeNotes(rep, st)
	checkSessions(rep, st.completed(), traces)
	rep.attempted += st.attempted()
	rep.failed += st.failed()
	return nil
}

// schedMetrics reports the scheduler figures, each the median over the
// given passes and each taken from the same RunAll calls: wall time, the
// CPU time the process spent inside them (materialization, lanes,
// kernels and the GC alike), and the share of the pool's capacity left
// idle, 1 - CPU / (workers x wall).
func schedMetrics(rep *report, passes []passResult) {
	var wall, cpu, idle []float64
	for _, pr := range passes {
		wall = append(wall, pr.runAll.Seconds())
		cpu = append(cpu, pr.runAllCPU.Seconds())
		idle = append(idle, 1-pr.runAllCPU.Seconds()/(workers*pr.runAll.Seconds()))
	}
	rep.set("sim.runall_wall_s", median(wall), "s")
	rep.set("sim.runall_cpu_s", median(cpu), "s")
	rep.set("sim.sched_idle_share", median(idle), "ratio")
}

// layerMetrics derives every layer's self time from the spans of a traced
// run.
func layerMetrics(rep *report, spans []span) {
	self := layerSelf(spans)
	for _, l := range layers {
		rep.set("self."+l+"_s", self[l], "s")
	}
}
