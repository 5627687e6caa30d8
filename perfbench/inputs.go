package main

import (
	"bytes"
	"fmt"
	"strconv"

	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// Input sizes. Everything the program receives is generated here from the
// seed; the same seed gives byte-identical inputs.
const (
	// A serve session is predload's default shape: four ingests of 1,000
	// records each.
	ingestsPerSession = 4
	ingestRecords     = 1000
	sessionRecords    = ingestsPerSession * ingestRecords
	// sessionTraces distinct session traces per run; clients cycle
	// through them, so the expected answers are computed once per trace.
	sessionTraces = 8
)

// sessionTrace is one session's worth of branches in both wire formats,
// with the report the service must return after all four ingests.
type sessionTrace struct {
	text [ingestsPerSession][]byte // "0x<pc> <0|1>" lines, as predload sends
	bmc1 [ingestsPerSession][]byte // BMC1 columnar files
	// mispredicts is sim.RunGeneric of the session's spec over the
	// session's records: the reference the report must match.
	mispredicts int
}

// makeSessionTraces builds the session trace pool for spec. Each trace
// comes from a different paper profile, so sessions differ in static
// branch count and behaviour.
func makeSessionTraces(seed uint64, spec string) ([]sessionTrace, error) {
	profiles := synth.Profiles()
	out := make([]sessionTrace, sessionTraces)
	for i := range out {
		p := profiles[i%len(profiles)]
		w, err := synth.NewWorkload(p.WithDynamic(sessionRecords).WithSeed(mix(seed, i)))
		if err != nil {
			return nil, err
		}
		mem := trace.Materialize(w)
		recs := mem.Records()
		for k := 0; k < ingestsPerSession; k++ {
			chunk := recs[k*ingestRecords : (k+1)*ingestRecords]
			var tb []byte
			for _, r := range chunk {
				tb = append(tb, "0x"...)
				tb = strconv.AppendUint(tb, r.PC, 16)
				if r.Taken {
					tb = append(tb, " 1\n"...)
				} else {
					tb = append(tb, " 0\n"...)
				}
			}
			out[i].text[k] = tb
			var bb bytes.Buffer
			if err := trace.WriteColumnar(&bb, trace.NewMemory(p.Name, mem.StaticCount(), chunk)); err != nil {
				return nil, err
			}
			out[i].bmc1[k] = bb.Bytes()
		}
		pred, err := zoo.New(spec)
		if err != nil {
			return nil, err
		}
		out[i].mispredicts = sim.RunGeneric(pred, mem).Mispredicts
	}
	return out, nil
}

// makeSweepTraces generates the 14 paper workloads (6 SPEC CINT95, 8
// IBS-Ultrix profiles) at their calibrated lengths, the ones the Figure 2
// drivers use by default (an eighth of the paper's counts: 0.69M to 4.96M
// branches, 29.9M in all), and encodes each to BMC1 in memory.
func makeSweepTraces(seed uint64) ([][]byte, error) {
	var out [][]byte
	for i, p := range synth.Profiles() {
		w, err := synth.NewWorkload(p.WithSeed(mix(seed, 100+i)))
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := trace.WriteColumnar(&b, trace.Materialize(w)); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", p.Name, err)
		}
		out = append(out, b.Bytes())
	}
	return out, nil
}
