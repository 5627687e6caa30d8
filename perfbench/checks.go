package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strconv"

	"bimode/internal/sim"
	"bimode/internal/zoo"
)

// Output checks. Every check is a pure function of the answer it judges,
// and every run also feeds each one an injected wrong answer, which it
// must reject.

// checkSession judges one completed serve session: the report's cursor
// must equal the records sent and its mispredicts sim.RunGeneric's.
func checkSession(o sessionOutcome, traces []sessionTrace) error {
	want := traces[o.trace].mispredicts
	if o.cursor != sessionRecords {
		return fmt.Errorf("session on trace %d: cursor %d after %d records sent", o.trace, o.cursor, sessionRecords)
	}
	if o.mispredicts != int64(want) {
		return fmt.Errorf("session on trace %d: %d mispredicts, sim.RunGeneric says %d", o.trace, o.mispredicts, want)
	}
	return nil
}

func checkSessions(rep *report, done []sessionOutcome, traces []sessionTrace) {
	var err error
	for _, o := range done {
		if e := checkSession(o, traces); e != nil && err == nil {
			err = e
		}
	}
	if len(done) == 0 {
		err = fmt.Errorf("no session completed")
	}
	rep.check(fmt.Sprintf("serve reports (%d sessions)", len(done)), err)
	if len(done) > 0 {
		bad := done[0]
		bad.cursor--
		rep.trips("serve cursor check", checkSession(bad, traces))
		bad = done[0]
		bad.mispredicts++
		rep.trips("serve mispredict check", checkSession(bad, traces))
	}
}

// checkCells compares grid results cell by cell.
func checkCells(got, want []sim.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Err != nil || g.Branches != w.Branches || g.Mispredicts != w.Mispredicts {
			return fmt.Errorf("cell %d (%s on %s): %d/%d mispredicts/branches (err %v), want %d/%d",
				i, w.Predictor, w.Workload, g.Mispredicts, g.Branches, g.Err, w.Mispredicts, w.Branches)
		}
	}
	return nil
}

// checkObserve requires every Observe report to count exactly what the
// grid cell of the same spec and workload counted.
func checkObserve(sw *sweep, cells []sim.Result, obs []*sim.Report) error {
	for k, r := range obs {
		spec := observeSpecs[k%len(observeSpecs)]
		w := k / len(observeSpecs)
		for g, gs := range gridSpecs {
			if gs != spec {
				continue
			}
			c := cells[g*len(sw.cols)+w]
			if r == nil || r.Branches != c.Branches || r.Mispredicts != c.Mispredicts {
				return fmt.Errorf("Observe %s on %s disagrees with the grid cell (%d mispredicts)", spec, c.Workload, c.Mispredicts)
			}
		}
	}
	return nil
}

// checkSection4 is the paper's Section 4 claim: summed over the
// workloads, bi-mode suffers less destructive aliasing than gshare.
func checkSection4(obs []*sim.Report) error {
	var destr [len(observeSpecs)]int
	for k, r := range obs {
		if r == nil || r.Interference == nil {
			return fmt.Errorf("report %d has no interference metrics", k)
		}
		destr[k%len(observeSpecs)] += r.Interference.Destructive
	}
	if destr[0] >= destr[1] {
		return fmt.Errorf("%s destructive aliasing %d not below %s's %d", observeSpecs[0], destr[0], observeSpecs[1], destr[1])
	}
	return nil
}

// sweepDigest hashes every grid cell's and Observe report's counts.
func sweepDigest(cells []sim.Result, obs []*sim.Report) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s %s %d %d\n", c.Predictor, c.Workload, c.Branches, c.Mispredicts)
	}
	for _, r := range obs {
		fmt.Fprintf(h, "%s %s %d %d", r.Predictor, r.Workload, r.Branches, r.Mispredicts)
		if in := r.Interference; in != nil {
			fmt.Fprintf(h, " %d %d %d", in.Aliased, in.Destructive, in.Constructive)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digests holds sweepDigest for seeds [0, n), recorded at the commit that
// introduced the benchmark; regenerate with --write-digests only when the
// simulated results are meant to change.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(seed uint64) (string, bool, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", false, err
	}
	d, ok := m[strconv.FormatUint(seed, 10)]
	return d, ok, nil
}

func checkDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %s, recorded %s", got, want)
	}
	return nil
}

// checkSweep runs every sim-sweep check: passes agree with each other and
// with sim.RunGeneric, Observe agrees with the grid and shows the Section
// 4 ordering, and the counts match the digest recorded for the seed.
func checkSweep(rep *report, sw *sweep, seed uint64, first passResult, passes []passResult) {
	var err error
	for _, pr := range passes {
		if e := checkCells(pr.cells, first.cells); e != nil && err == nil {
			err = e
		}
	}
	rep.check(fmt.Sprintf("sim-sweep passes agree (%d passes)", len(passes)+1), err)

	oracle := make([]sim.Result, len(sw.jobs))
	errs := sw.sched.Do(len(sw.jobs), func(j int) error {
		p, err := zoo.New(gridSpecs[j/len(sw.cols)])
		if err != nil {
			return err
		}
		oracle[j] = sim.RunGeneric(p, sw.jobs[j].Source)
		return nil
	})
	for _, e := range errs {
		if e != nil {
			rep.check("sim.RunGeneric oracle", e)
			return
		}
	}
	rep.check("grid cells equal sim.RunGeneric", checkCells(first.cells, oracle))
	rep.check("Observe equals the grid", checkObserve(sw, first.cells, first.observe))
	rep.check("Section 4: bi-mode destructive aliasing below gshare", checkSection4(first.observe))

	want, ok, err := recordedDigest(seed)
	switch {
	case err != nil:
		rep.check("digest file", err)
	case ok:
		rep.check("digest recorded for seed "+strconv.FormatUint(seed, 10), checkDigest(sweepDigest(first.cells, first.observe), want))
	default:
		rep.notef("digest: none recorded for seed %d; the reference seed's digest is still checked", seed)
	}

	rep.trips("grid oracle check", checkCells(perturb(first.cells), oracle))
	badObs := append([]*sim.Report(nil), first.observe...)
	r := *badObs[0]
	r.Mispredicts++
	badObs[0] = &r
	rep.trips("Observe-vs-grid check", checkObserve(sw, first.cells, badObs))
	swapped := make([]*sim.Report, len(first.observe))
	for k := range swapped {
		swapped[k] = first.observe[k^1]
	}
	rep.trips("Section 4 check", checkSection4(swapped))
}

// perturb returns a copy of cells with one mispredict added to one cell.
func perturb(cells []sim.Result) []sim.Result {
	bad := append([]sim.Result(nil), cells...)
	bad[len(bad)/2].Mispredicts++
	return bad
}

// refSeed is the seed whose recorded digest every sim-sweep run checks,
// whatever its own seed, so the digest gate runs on every invocation.
// It is the one check that catches a change to code both the grid and
// its sim.RunGeneric oracle share (synth, the counters).
const refSeed = 0

// checkReference runs one untimed grid and Observe pass on the reference
// seed's traces, after the measured ones, and checks its digest.
func checkReference(rep *report) error {
	debug.FreeOSMemory()
	want, ok, err := recordedDigest(refSeed)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("digests.json has no digest for the reference seed %d", refSeed)
	}
	data, err := makeSweepTraces(refSeed)
	if err != nil {
		return err
	}
	sw, err := newSweep(data)
	if err != nil {
		return err
	}
	pr := sw.pass(nil, 0)
	rep.attempted += len(pr.cells) + len(pr.observe)
	rep.failed += pr.failed
	rep.check(fmt.Sprintf("digest recorded for reference seed %d", refSeed), checkDigest(sweepDigest(pr.cells, pr.observe), want))
	rep.trips("digest check", checkDigest(sweepDigest(perturb(pr.cells), pr.observe), want))
	return nil
}

// writeSweepDigests prints the digests of seeds [0, n) as JSON, for
// digests.json.
func writeSweepDigests(out io.Writer, n int) error {
	m := map[string]string{}
	for seed := 0; seed < n; seed++ {
		data, err := makeSweepTraces(uint64(seed))
		if err != nil {
			return err
		}
		sw, err := newSweep(data)
		if err != nil {
			return err
		}
		pr := sw.pass(nil, 0)
		if pr.failed > 0 {
			return fmt.Errorf("seed %d: %d jobs failed", seed, pr.failed)
		}
		m[strconv.Itoa(seed)] = sweepDigest(pr.cells, pr.observe)
	}
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
