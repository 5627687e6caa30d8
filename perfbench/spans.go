package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans live in memory for the whole traced run and are written out when
// it ends; nothing is recorded inside the program itself.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Session uint64 `json:"session,omitempty"`
	Name    string `json:"name"`
	// N is the work the call did: records decoded, branches simulated.
	N     int64 `json:"n,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer is the untraced mode: do calls
// its function directly and records nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name that did n units of work. f
// receives the span's id, to pass as the parent of nested calls.
func (t *tracer) do(name string, parent, session uint64, n int64, f func(id uint64)) {
	if t == nil {
		f(0)
		return
	}
	id := t.nextID.Add(1)
	start := time.Since(t.t0)
	f(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: session, Name: name,
		N: n, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
}

// newID reserves a span id for a span recorded later with add, for calls
// whose start and end happen in different places.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since is the span clock: nanoseconds since the tracer started.
func (t *tracer) since() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the durations of every span called name, in ms.
func named(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children, as from a
// worker pool, count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerOf maps a span name to the layer row it belongs to; "" for the
// benchmark's own spans (sessions, passes, probe roots).
func layerOf(name string) string {
	switch {
	case name == "trace.TextScanner.Scan":
		return "trace_text"
	case strings.HasPrefix(name, "trace."):
		return "trace_bmc1"
	case strings.HasPrefix(name, "sim.Run"):
		return "kernel"
	case strings.HasPrefix(name, "sim.Scheduler."):
		return "sim_sched"
	case name == "sim.Observe":
		return "sim_observe"
	case name == "serve.commit":
		return "serve_commit"
	case strings.HasPrefix(name, "serve."):
		return "serve_route"
	case strings.HasPrefix(name, "net."):
		return "net_loopback"
	}
	return ""
}

// layers lists the layer rows in report order.
var layers = []string{"trace_text", "trace_bmc1", "kernel", "sim_sched", "sim_observe",
	"serve_route", "serve_commit", "net_loopback"}

// layerSelf sums self time per layer row, in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if l := layerOf(s.Name); l != "" {
			out[l] += self[s.ID].Seconds()
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, after one header line with
// the run's environment.
func writeSpans(path string, env map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
