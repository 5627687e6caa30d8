package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
)

// A session is one client's long-lived simulation: a set of predictor
// instances being trained incrementally by streamed trace chunks, plus
// the per-static bookkeeping (site table, occurrence and mispredict
// counts, aliasing trackers) behind its reports.
//
// Sessions live in two states. Resident: predictors in memory, journal
// open, requests apply directly. Spilled: nothing in memory but the
// header (id, name, admitted specs); the journal on disk holds the last
// snapshot and the records committed since. The transition is free in
// both directions because every successful ingest journals its records
// before it is acknowledged — eviction just drops memory, and residency
// is restored by reloading the snapshot and replaying the records after
// it. A crash (or Server.Kill, its test double) is the same transition
// taken involuntarily: whatever was in memory is gone, and the journal —
// up to the last acknowledged request — is exactly what comes back.
//
// Lock order: session.mu strictly before Server.mu. A session request
// holds session.mu for its duration; Server.mu is taken only for brief
// map/LRU edits. Eviction of OTHER sessions therefore never happens
// while holding any session lock — see Server.enforceResidentCap.
type session struct {
	id   string
	name string

	// Everything below mu is guarded by it.
	mu        chan struct{} // 1-slot semaphore: a mutex tests can TryLock via select
	resident  bool
	journal   *sessionJournal
	specs     []*specState
	footnotes []string
	pcs       []uint64          // dense static id -> branch PC
	sites     map[uint64]uint32 // branch PC -> dense static id
	occ       []int64           // per-static occurrence counts
	cursor    int               // records committed (the durability watermark)

	lruToken any // opaque LRU handle owned by the Server, nil when spilled
}

// lock acquires the session, respecting ctx so a request bounded by a
// deadline does not queue forever behind a slow neighbor on the same id.
func (sess *session) lock(ctx context.Context) error {
	select {
	case sess.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctxError(ctx.Err())
	}
}

func (sess *session) unlock() { <-sess.mu }

// specState is one predictor's slice of a session.
type specState struct {
	spec string
	p    predictor.Predictor
	snap predictor.Snapshotter
	idx  predictor.Indexed // nil when the family is not Indexed

	mispredicts int64
	miss        []int64 // per-static mispredicts (the H2P input)
	// last tracks, per second-level counter, the static id that consulted
	// it most recently (-1 = never): the streaming aliasing proxy. A
	// consult whose owner differs is a conflict; a conflicting consult
	// that also mispredicts is destructive interference (Section 3).
	last             []int32
	aliasConflicts   int64
	aliasDestructive int64
	failed           bool // disabled by a runtime failure; counts frozen
}

// newSpecState wires the optional capabilities for a freshly built
// predictor. Only Snapshotter-capable predictors are admitted — without
// a snapshot the session could not honor its durability contract.
func newSpecState(spec string, p predictor.Predictor) (*specState, error) {
	snap, ok := p.(predictor.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("predictor %q does not support snapshots", p.Name())
	}
	sp := &specState{spec: spec, p: p, snap: snap}
	if idx, ok := p.(predictor.Indexed); ok {
		sp.idx = idx
		sp.last = make([]int32, idx.NumCounters())
		for i := range sp.last {
			sp.last[i] = -1
		}
	}
	return sp, nil
}

// buildPredictor constructs a predictor from a spec through the Server's
// Build seam, converting panics to errors (the zoo.New contract already
// does, but the seam is test-injectable) and retrying transient failures
// with doubling backoff — the scheduler's Policy idiom, so a FlakyMake
// construction fault heals here exactly as it does in a batch suite.
func (s *Server) buildPredictor(ctx context.Context, spec string) (predictor.Predictor, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		p, err := buildOnce(s.cfg.Build, spec)
		if err == nil {
			return p, nil
		}
		lastErr = err
		if !sim.Retryable(err) || attempt >= s.cfg.MaxRetries {
			return nil, lastErr
		}
		s.ctr.buildRetries.Add(1)
		if !sleepCtx(ctx, s.cfg.RetryBackoff<<uint(attempt)) {
			return nil, fmt.Errorf("%v (retry abandoned: %w)", lastErr, ctx.Err())
		}
	}
}

func buildOnce(build func(string) (predictor.Predictor, error), spec string) (p predictor.Predictor, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("serve: building %q: %w", spec, e)
			} else {
				err = fmt.Errorf("serve: building %q: %v", spec, r)
			}
		}
	}()
	return build(spec)
}

// sleepCtx sleeps for d unless ctx cancels first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// siteFor maps a branch PC to the session's dense static id, assigning
// the next id on first appearance and growing every per-static array to
// cover it. The site table may run ahead of the arrays (the text scanner
// inserts PCs as it parses), so growth is by-need here.
func (sess *session) siteFor(pc uint64) uint32 {
	st, ok := sess.sites[pc]
	if !ok {
		st = uint32(len(sess.sites))
		sess.sites[pc] = st
	}
	for int(st) >= len(sess.pcs) {
		sess.pcs = append(sess.pcs, 0)
		sess.occ = append(sess.occ, 0)
		for _, sp := range sess.specs {
			sp.miss = append(sp.miss, 0)
		}
	}
	sess.pcs[st] = pc
	return st
}

// applyChunk runs one chunk of records through every live spec. Static
// ids are remapped by PC into the session's id space first — a binary
// body's embedded Static ids belong to the client's capture, not to this
// session — then each spec processes the whole chunk, so one spec's
// runtime failure (caught in runSpecChunk) cannot corrupt another's
// interleaving.
func (sess *session) applyChunk(recs []trace.Record) {
	for i := range recs {
		st := sess.siteFor(recs[i].PC)
		recs[i].Static = st
		sess.occ[st]++
	}
	for _, sp := range sess.specs {
		if !sp.failed {
			sess.runSpecChunk(sp, recs)
		}
	}
	sess.cursor += len(recs)
}

// runSpecChunk trains one spec on a chunk. A panic anywhere in the
// predictor disables the spec — counts freeze, a footnote records where
// and why — and the session carries on with its surviving specs: the
// graceful-degradation contract, per spec rather than per request.
func (sess *session) runSpecChunk(sp *specState, recs []trace.Record) {
	done := 0
	defer func() {
		if r := recover(); r != nil {
			sp.failed = true
			sess.footnotes = append(sess.footnotes, fmt.Sprintf(
				"spec %q disabled at record %d: %v", sp.spec, sess.cursor+done, r))
		}
	}()
	for _, rec := range recs {
		pc, taken, st := rec.PC, rec.Taken, rec.Static
		conflict := false
		if sp.idx != nil {
			cid := sp.idx.CounterID(pc)
			if prev := sp.last[cid]; prev >= 0 && prev != int32(st) {
				conflict = true
				sp.aliasConflicts++
			}
			sp.last[cid] = int32(st)
		}
		predicted := sp.p.Predict(pc)
		sp.p.Update(pc, taken)
		if predicted != taken {
			sp.mispredicts++
			sp.miss[st]++
			if conflict {
				sp.aliasDestructive++
			}
		}
		done++
	}
}

// buildSnap captures the session's complete committed state as one
// journal snapshot.
func (sess *session) buildSnap() *sessionSnap {
	snap := &sessionSnap{
		Cursor:    sess.cursor,
		PCs:       append([]uint64(nil), sess.pcs...),
		Occ:       append([]int64(nil), sess.occ...),
		Footnotes: append([]string(nil), sess.footnotes...),
	}
	for _, sp := range sess.specs {
		ss := specSnap{
			Spec:             sp.spec,
			Mispredicts:      sp.mispredicts,
			Miss:             append([]int64(nil), sp.miss...),
			AliasConflicts:   sp.aliasConflicts,
			AliasDestructive: sp.aliasDestructive,
			Failed:           sp.failed,
		}
		if !sp.failed {
			ss.State = sp.snap.Snapshot(nil)
			ss.Last = packInt32s(sp.last)
		}
		snap.Specs = append(snap.Specs, ss)
	}
	return snap
}

// restoreState rebuilds the session's in-memory state from a journal
// snapshot (nil = a session that never committed: fresh predictors, zero
// counts). Predictor construction retries transients like creation did;
// any mismatch between the snapshot and freshly built predictors means
// the journal does not describe this server's world, and the session is
// unrecoverable rather than approximately recovered.
func (s *Server) restoreState(ctx context.Context, sess *session, snap *sessionSnap) error {
	specs := make([]*specState, 0, len(sess.specsAdmitted()))
	if snap == nil {
		sess.pcs, sess.occ, sess.cursor = nil, nil, 0
		sess.sites = map[uint64]uint32{}
		sess.footnotes = append([]string(nil), sess.journal.hdr.Footnotes...)
		for _, spec := range sess.specsAdmitted() {
			p, err := s.buildPredictor(ctx, spec)
			if err != nil {
				return fmt.Errorf("rebuilding %q: %w", spec, err)
			}
			sp, err := newSpecState(spec, p)
			if err != nil {
				return fmt.Errorf("rebuilding %q: %w", spec, err)
			}
			specs = append(specs, sp)
		}
		sess.specs = specs
		return nil
	}
	admitted := sess.specsAdmitted()
	if len(snap.Specs) != len(admitted) {
		return fmt.Errorf("snapshot has %d specs, session admitted %d", len(snap.Specs), len(admitted))
	}
	sess.pcs = append([]uint64(nil), snap.PCs...)
	sess.occ = append([]int64(nil), snap.Occ...)
	if len(sess.occ) != len(sess.pcs) {
		return fmt.Errorf("snapshot occ/pcs length mismatch: %d != %d", len(sess.occ), len(sess.pcs))
	}
	sess.sites = make(map[uint64]uint32, len(sess.pcs))
	for st, pc := range sess.pcs {
		sess.sites[pc] = uint32(st)
	}
	sess.cursor = snap.Cursor
	sess.footnotes = append([]string(nil), snap.Footnotes...)
	for i, ss := range snap.Specs {
		if ss.Spec != admitted[i] {
			return fmt.Errorf("snapshot spec %d is %q, session admitted %q", i, ss.Spec, admitted[i])
		}
		if len(ss.Miss) > len(sess.pcs) {
			return fmt.Errorf("spec %q: %d miss rows for %d statics", ss.Spec, len(ss.Miss), len(sess.pcs))
		}
		sp := &specState{
			spec:             ss.Spec,
			mispredicts:      ss.Mispredicts,
			miss:             append(make([]int64, 0, len(sess.pcs)), ss.Miss...),
			aliasConflicts:   ss.AliasConflicts,
			aliasDestructive: ss.AliasDestructive,
			failed:           ss.Failed,
		}
		for len(sp.miss) < len(sess.pcs) {
			sp.miss = append(sp.miss, 0)
		}
		if ss.Failed {
			// A disabled spec never runs again; its predictor is rebuilt
			// only for the report's name/cost, and a rebuild failure just
			// leaves those blank.
			if p, err := s.buildPredictor(ctx, ss.Spec); err == nil {
				sp.p = p
			}
			specs = append(specs, sp)
			continue
		}
		p, err := s.buildPredictor(ctx, ss.Spec)
		if err != nil {
			return fmt.Errorf("rebuilding %q: %w", ss.Spec, err)
		}
		live, err := newSpecState(ss.Spec, p)
		if err != nil {
			return fmt.Errorf("rebuilding %q: %w", ss.Spec, err)
		}
		if err := live.snap.RestoreSnapshot(ss.State); err != nil {
			return fmt.Errorf("restoring %q: %w", ss.Spec, err)
		}
		if live.idx != nil {
			last, err := unpackInt32s(ss.Last)
			if err != nil {
				return fmt.Errorf("restoring %q aliasing tracker: %w", ss.Spec, err)
			}
			if len(last) != len(live.last) {
				return fmt.Errorf("restoring %q: %d counter owners for %d counters", ss.Spec, len(last), len(live.last))
			}
			live.last = last
		}
		live.mispredicts = sp.mispredicts
		live.miss = sp.miss
		live.aliasConflicts = sp.aliasConflicts
		live.aliasDestructive = sp.aliasDestructive
		specs = append(specs, live)
	}
	sess.specs = specs
	return nil
}

// replay applies the record lines journaled after the restored
// snapshot, in order, through applyChunk — the path the acknowledged
// requests took. Each line must start at the replayed cursor, pass its
// BMC1 checksums, and remap every PC to the static id it was journaled
// with; anything else means the journal does not describe this session.
// The request's ctx is checked between lines, so an abandoned request
// stops a long replay without condemning the journal.
func (sess *session) replay(ctx context.Context, tail []*recordsLine) error {
	var want []uint32
	for _, line := range tail {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replay abandoned: %w", err)
		}
		if line.At != sess.cursor {
			return fmt.Errorf("record line starts at cursor %d, replay is at %d", line.At, sess.cursor)
		}
		c, err := trace.OpenColumnar(line.BMC1)
		if err != nil {
			return fmt.Errorf("record line at cursor %d: %w", line.At, err)
		}
		for bs := c.BlockStream(); ; {
			recs, err := bs.NextBlock()
			if err != nil {
				return fmt.Errorf("record line at cursor %d: %w", line.At, err)
			}
			if recs == nil {
				break
			}
			want = want[:0]
			for _, rec := range recs {
				want = append(want, rec.Static)
			}
			sess.applyChunk(recs)
			for i, rec := range recs {
				if rec.Static != want[i] {
					return fmt.Errorf("record %d remaps PC %#x to static %d, journaled as %d",
						sess.cursor-len(recs)+i, rec.PC, rec.Static, want[i])
				}
			}
		}
	}
	return nil
}

// clearState discards the session's in-memory state (the journal
// handle aside).
func (sess *session) clearState() {
	sess.specs = nil
	sess.pcs, sess.occ, sess.sites, sess.footnotes = nil, nil, nil, nil
	sess.cursor = 0
}

// specsAdmitted returns the session's admitted spec strings (the journal
// header's plan, valid resident or spilled).
func (sess *session) specsAdmitted() []string { return sess.journal.hdr.Specs }

// report assembles the session's current Report. It reads only committed
// state, carries no timing, and is therefore byte-for-byte reproducible
// from the journal alone — the property the kill-and-resume test pins.
func (sess *session) report(topN int) Report {
	rep := Report{
		ID:        sess.id,
		Name:      sess.name,
		Cursor:    sess.cursor,
		Statics:   len(sess.pcs),
		Footnotes: append([]string(nil), sess.footnotes...),
		Specs:     []SpecReport{},
	}
	for _, sp := range sess.specs {
		sr := SpecReport{
			Spec:        sp.spec,
			Mispredicts: sp.mispredicts,
			Failed:      sp.failed,
		}
		if sess.cursor > 0 {
			sr.MispredictRate = float64(sp.mispredicts) / float64(sess.cursor)
		}
		if sp.p != nil {
			sr.Predictor = sp.p.Name()
			sr.CostBytes = predictor.CostBytes(sp.p)
		}
		if sp.idx != nil {
			sr.Aliasing = &AliasingReport{
				Counters:    len(sp.last),
				Conflicts:   sp.aliasConflicts,
				Destructive: sp.aliasDestructive,
			}
		}
		sr.Top = h2pTop(sp.miss, sess.occ, sess.pcs, topN)
		rep.Specs = append(rep.Specs, sr)
	}
	return rep
}

// ingest streams one request body into the session: sniff the format,
// decode, apply in bounded chunks (checking the deadline and the ingest
// token bucket at every chunk boundary), and commit by journaling the
// applied records. Nothing is acknowledged before the journal flush
// returns; on ANY error the session's in-memory state is dropped and the
// journal stands as it was, so a failed request rolls back exactly to
// the previous commit and the client retries from the reported cursor.
func (s *Server) ingest(ctx context.Context, sess *session, body io.Reader) (int, error) {
	live := sess.liveSpecs()
	applied := new(trace.ColumnarEncoder)
	if err := s.ingestApply(ctx, sess, body, applied); err != nil {
		s.ctr.rollbacks.Add(1)
		s.dropResident(sess)
		return 0, err
	}
	if err := sess.commit(applied, live); err != nil {
		s.ctr.rollbacks.Add(1)
		s.dropResident(sess)
		return 0, fmt.Errorf("serve: committing session %s: %w", sess.id, err)
	}
	s.ctr.ingested.Add(int64(applied.Len()))
	return applied.Len(), nil
}

// commit makes one applied request durable. A request without records
// changed nothing, so it appends nothing. One that disabled a spec
// (live specs fell from live) commits a full snapshot: the panic that
// froze the spec need not recur on replay. Anything else appends its
// records.
func (sess *session) commit(applied *trace.ColumnarEncoder, live int) error {
	switch {
	case applied.Len() == 0:
		return nil
	case sess.liveSpecs() != live:
		return sess.journal.appendSnap(sess.buildSnap())
	}
	return sess.journal.appendRecords(sess.cursor-applied.Len(), applied.Bytes("", len(sess.pcs)), sess.buildSnap)
}

// liveSpecs counts the specs not disabled by a runtime failure.
func (sess *session) liveSpecs() int {
	n := 0
	for _, sp := range sess.specs {
		if !sp.failed {
			n++
		}
	}
	return n
}

// ingestChunk is the unit of admission: deadline and rate are checked
// per chunk, so a huge body cannot blow past either between checks.
const ingestChunk = 4096

// ingestApply decodes and applies one body a chunk at a time, encoding
// each applied chunk — Static ids remapped into the session's space —
// into applied as one BMC1 block for the commit. A request therefore
// holds its records in their encoded form (~4-5 bytes each, plus the
// base64 copy in the journal line) rather than as Records.
func (s *Server) ingestApply(ctx context.Context, sess *session, body io.Reader, applied *trace.ColumnarEncoder) error {
	apply := func(chunk []trace.Record) error {
		if err := s.admitChunk(ctx, len(chunk)); err != nil {
			return err
		}
		sess.applyChunk(chunk)
		return applied.Append(chunk)
	}
	head := make([]byte, 4)
	n, err := io.ReadFull(body, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return bodyError(err)
	}
	head = head[:n]
	if string(head) == "BMT1" || trace.IsColumnar(head) {
		rest, err := io.ReadAll(body)
		if err != nil {
			return bodyError(err)
		}
		mem, err := trace.Decode(append(head, rest...))
		if err != nil {
			return httpErrorf(http.StatusBadRequest, "decoding trace body: %v", err)
		}
		for recs := mem.Records(); len(recs) > 0; {
			chunk := recs[:min(len(recs), ingestChunk)]
			if err := apply(chunk); err != nil {
				return err
			}
			recs = recs[len(chunk):]
		}
		return nil
	}

	// Anything else is the text capture format, parsed record-at-a-time
	// into one reused chunk. The body's transport errors are tracked
	// out-of-band: when the limiter cuts the body mid-line, the scanner
	// sees the partial line first and reports a parse error, but the
	// truncation — not the parse — is the real failure.
	tracked := &errTrackReader{r: body}
	sc := trace.NewTextScanner(io.MultiReader(bytes.NewReader(head), tracked))
	sc.SetSites(sess.sites)
	chunk := make([]trace.Record, 0, ingestChunk)
	for sc.Scan() {
		chunk = append(chunk, sc.Record())
		if len(chunk) == ingestChunk {
			if err := apply(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if err := sc.Err(); err != nil {
		if tracked.err != nil {
			return bodyError(tracked.err)
		}
		return httpErrorf(http.StatusBadRequest, "%v", err)
	}
	if len(chunk) > 0 {
		return apply(chunk)
	}
	return nil
}

// admitChunk applies the per-chunk gates: the request deadline and the
// shared ingest token bucket.
func (s *Server) admitChunk(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return ctxError(err)
	}
	if wait, ok := s.bucket.take(n); !ok {
		s.ctr.overload.Add(1)
		return overloadError("ingest rate", wait)
	}
	return nil
}

// ctxError maps a context failure to its HTTP rendering: the request's
// deadline elapsed or the client went away; either way the work rolled
// back and the client should retry from the committed cursor.
func ctxError(err error) error {
	return &httpError{code: http.StatusRequestTimeout,
		msg: fmt.Sprintf("request abandoned: %v", err), retryAfter: time.Second}
}

// bodyError maps a failure reading the request body. An over-limit body
// is the client's fault (413); anything else — a cut connection, a slow
// loris that tripped the server's read deadline — is reported as 400
// with the transport error, and the request rolls back.
func bodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return httpErrorf(http.StatusRequestEntityTooLarge, "request body over %d bytes", mbe.Limit)
	}
	return httpErrorf(http.StatusBadRequest, "reading request body: %v", err)
}

// errTrackReader remembers the first transport error a body read hits,
// so the ingest can tell a truncated body from a malformed one even when
// the truncation point parses as garbage first.
type errTrackReader struct {
	r   io.Reader
	err error
}

func (t *errTrackReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF && t.err == nil {
		t.err = err
	}
	return n, err
}

// packInt32s encodes the aliasing tracker for a snapshot (little-endian).
func packInt32s(v []int32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

func unpackInt32s(data []byte) ([]int32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("owner array length %d is not a multiple of 4", len(data))
	}
	out := make([]int32, len(data)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out, nil
}
