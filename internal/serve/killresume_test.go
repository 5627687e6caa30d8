package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// The service-layer kill-and-resume suite: the analogue of internal/sim's
// TestKillResumeEquivalence, one layer up. The contract under test is the
// commit-per-request durability rule — everything a client was told is
// committed survives any crash, byte-for-byte, and everything else rolls
// back to the last acknowledged cursor.

// TestKillResumeEquivalence runs every exposed Snapshotter family
// through crash-shaped interruptions:
//
//  1. ingest part of a trace, record the report
//  2. Kill (drop all in-memory state with no journal write — exactly
//     what a process crash loses)
//  3. the report must come back byte-identical, and
//  4. ingesting the remainder must land the session in the same state as
//     an uninterrupted control session fed the whole trace.
func TestKillResumeEquivalence(t *testing.T) {
	for _, spec := range snapSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			s, base := newTestServer(t, Config{})
			mem := testTrace(t, 6000)
			recs := mem.Records()

			victim := createSession(t, base, spec)
			control := createSession(t, base, spec)

			// Control ingests everything in one uninterrupted stream.
			ingestText(t, base, control.ID, textBody(recs))

			// The victim is killed between every chunk.
			cuts := []int{0, 1500, 3000, 4500, len(recs)}
			for i := 0; i+1 < len(cuts); i++ {
				ingestText(t, base, victim.ID, textBody(recs[cuts[i]:cuts[i+1]]))
				before, rep := rawReport(t, base, victim.ID)
				if rep.Cursor != cuts[i+1] {
					t.Fatalf("cursor %d after ingesting to %d", rep.Cursor, cuts[i+1])
				}
				s.Kill()
				after, _ := rawReport(t, base, victim.ID)
				if !bytes.Equal(before, after) {
					t.Fatalf("report changed across kill at cursor %d:\nbefore: %s\nafter:  %s",
						cuts[i+1], before, after)
				}
			}

			rawV, _ := rawReport(t, base, victim.ID)
			rawC, _ := rawReport(t, base, control.ID)
			got := strings.ReplaceAll(string(rawV), victim.ID, "SESSION")
			want := strings.ReplaceAll(string(rawC), control.ID, "SESSION")
			if got != want {
				t.Fatalf("killed-and-resumed state diverged from uninterrupted control:\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestServerRestartRecovery: a brand-new Server over the same journal
// directory re-registers every session and serves identical reports —
// process death, not just session eviction.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	mem := testTrace(t, 3000)

	s1, base1 := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base1, "bimode:b=11", "smith:a=12")
	ingestText(t, base1, rep.ID, textBody(mem.Records()))
	before, _ := rawReport(t, base1, rep.ID)
	// Simulate a hard stop: drop everything in memory, release handles.
	s1.Kill()
	s1.Close()

	_, base2 := newTestServer(t, Config{Dir: dir})
	after, got := rawReport(t, base2, rep.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across server restart:\nbefore: %s\nafter:  %s", before, after)
	}
	if got.Cursor != mem.Len() {
		t.Fatalf("restart lost committed records: cursor %d", got.Cursor)
	}
	// The recovered session is live, not a read-only fossil.
	res := ingestText(t, base2, rep.ID, "0x1234 1\n")
	if res.Report.Cursor != mem.Len()+1 {
		t.Fatalf("recovered session refuses ingest: cursor %d", res.Report.Cursor)
	}
}

// TestUnacknowledgedLossOnly: records in a request that was never
// acknowledged (its body failed mid-stream) are not merely invisible —
// after a kill and resume they were provably never applied.
func TestUnacknowledgedLossOnly(t *testing.T) {
	s, base := newTestServer(t, Config{})
	mem := testTrace(t, 2000)
	recs := mem.Records()

	rep := createSession(t, base, "gshare:i=12,h=12")
	ingestText(t, base, rep.ID, textBody(recs[:1000]))
	committed, _ := rawReport(t, base, rep.ID)

	// A failing body: valid lines followed by garbage. The valid prefix
	// must NOT be committed.
	bad := textBody(recs[1000:1500]) + "0xnope nope\n"
	resp := doJSON(t, "POST", base+"/v1/sessions/"+rep.ID+"/branches", strings.NewReader(bad), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
	s.Kill()
	after, got := rawReport(t, base, rep.ID)
	if !bytes.Equal(committed, after) {
		t.Fatalf("failed request leaked state:\nbefore: %s\nafter:  %s", committed, after)
	}
	if got.Cursor != 1000 {
		t.Fatalf("cursor %d, want the last acknowledged 1000", got.Cursor)
	}
}

// TestDamagedJournalQuarantined: journal damage other than a torn tail
// makes the session unrecoverable — 410, the file set aside as .damaged,
// never guessed-at state. A record line that parses was not torn, so a
// failed BMC1 checksum condemns the journal even on the final line.
func TestDamagedJournalQuarantined(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"header", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[10] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"interior-record-crc", func(t *testing.T, path string) {
			rewriteRecordLine(t, path, 1, func(rl *recordsLine) { rl.BMC1[len(rl.BMC1)/2] ^= 0x10 })
		}},
		{"final-record-crc", func(t *testing.T, path string) {
			rewriteRecordLine(t, path, -1, func(rl *recordsLine) { rl.BMC1[len(rl.BMC1)/2] ^= 0x10 })
		}},
		{"static-mismatch", func(t *testing.T, path string) {
			// Checksums intact, but the first record's static id is not the
			// one replay assigns to its PC.
			rewriteRecordLine(t, path, 0, func(rl *recordsLine) {
				c, err := trace.OpenColumnar(rl.BMC1)
				if err != nil {
					t.Fatal(err)
				}
				mem := trace.Materialize(c)
				recs := append([]trace.Record(nil), mem.Records()...)
				recs[0].Static = (recs[0].Static + 1) % uint32(mem.StaticCount())
				var buf bytes.Buffer
				if err := trace.WriteColumnar(&buf, trace.NewMemory("", mem.StaticCount(), recs)); err != nil {
					t.Fatal(err)
				}
				rl.BMC1 = buf.Bytes()
			})
		}},
		{"missing-record-line", func(t *testing.T, path string) {
			lines := journalLines(t, path)
			lines = append(lines[:2:2], lines[3:]...) // drop the second ingest
			if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, base := newTestServer(t, Config{Dir: dir})
			rep := createSession(t, base, "smith:a=12")
			ingestText(t, base, rep.ID, "0x1000 1\n0x2000 0\n")
			ingestText(t, base, rep.ID, "0x1000 0\n0x3000 1\n")
			ingestText(t, base, rep.ID, "0x2000 1\n")
			s.Kill() // release in-memory state so recovery must read the file

			path := journalPath(dir, rep.ID)
			if got := strings.Join(journalKinds(t, path), ","); got != "header,recs,recs,recs" {
				t.Fatalf("journal shape %s", got)
			}
			tc.damage(t, path)

			resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil)
			if resp.StatusCode != http.StatusGone {
				t.Fatalf("damaged session: status %d, want 410", resp.StatusCode)
			}
			if _, err := os.Stat(path + ".damaged"); err != nil {
				t.Fatalf("damaged journal not quarantined: %v", err)
			}
			// The id is gone from the table entirely.
			if resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("quarantined session still registered: status %d", resp.StatusCode)
			}
		})
	}
}

// TestTornTailTolerated: a journal whose final record line was cut
// mid-write (a killed writer) recovers to the previous ACK instead of
// being quarantined, and the next commit lands on a clean line.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base, "smith:a=12")
	ingestText(t, base, rep.ID, "0x1000 1\n0x2000 0\n")
	committed, _ := rawReport(t, base, rep.ID)
	ingestText(t, base, rep.ID, "0x3000 1\n")
	s.Kill()

	// Tear the last line: chop the file mid-way through it.
	path := journalPath(dir, rep.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	if !bytes.HasPrefix(last, []byte(`{"recs":`)) {
		t.Fatalf("final line is not a record line: %.40s", last)
	}
	torn := data[:len(data)-len(last)/2-1]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	after, got := rawReport(t, base, rep.ID)
	if got.Cursor != 2 {
		t.Fatalf("torn tail recovered to cursor %d, want 2", got.Cursor)
	}
	if !bytes.Equal(committed, after) {
		t.Fatalf("torn-tail recovery diverged:\nwant: %s\ngot:  %s", committed, after)
	}

	// The torn bytes are gone before the next append, so the commit after
	// recovery survives a kill instead of merging into the torn line.
	ingestText(t, base, rep.ID, "0x4000 0\n")
	committed, _ = rawReport(t, base, rep.ID)
	s.Kill()
	after, got = rawReport(t, base, rep.ID)
	if got.Cursor != 3 || !bytes.Equal(committed, after) {
		t.Fatalf("commit after torn-tail recovery lost:\nwant: %s\ngot:  %s", committed, after)
	}

	// A final line cut just before its newline is complete: it is kept,
	// and the next commit starts a line of its own.
	ingestText(t, base, rep.ID, "0x5000 1\n")
	s.Kill()
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, got := rawReport(t, base, rep.ID); got.Cursor != 4 {
		t.Fatalf("complete final line without newline: cursor %d, want 4", got.Cursor)
	}
	ingestText(t, base, rep.ID, "0x6000 1\n")
	committed, _ = rawReport(t, base, rep.ID)
	s.Kill()
	if after, _ := rawReport(t, base, rep.ID); !bytes.Equal(committed, after) {
		t.Fatalf("commit after a newline-less final line lost:\nwant: %s\ngot:  %s", committed, after)
	}
}

// TestJournalCompaction: a long-lived session's journal stays bounded,
// and compaction is invisible to the session's state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir, CompactBytes: 8 * 1024})
	mem := testTrace(t, 4000)
	recs := mem.Records()

	rep := createSession(t, base, "bimode:b=11")
	for i := 0; i+100 <= len(recs); i += 100 {
		ingestText(t, base, rep.ID, textBody(recs[i:i+100]))
	}
	fi, err := os.Stat(journalPath(dir, rep.ID))
	if err != nil {
		t.Fatal(err)
	}
	// 40 snapshots of a 2^11-bank bimode would be megabytes; compaction
	// must have kept the file near one snapshot's size.
	if fi.Size() > 64*1024 {
		t.Fatalf("journal grew to %d bytes despite CompactBytes=8KiB", fi.Size())
	}

	before, got := rawReport(t, base, rep.ID)
	if got.Cursor != 4000 {
		t.Fatalf("cursor %d", got.Cursor)
	}
	s.Kill()
	after, _ := rawReport(t, base, rep.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("compacted journal lost state:\nbefore: %s\nafter: %s", before, after)
	}

	// No stray temp files linger.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("compaction left temp files: %v", matches)
	}
}

// TestKillResumeJournalShapes kills the server after every ACK while the
// journal holds each of the shapes recovery must replay — a records-only
// tail, a snapshot followed by a tail (after compactions forced by a
// small CompactBytes), and a tail around the snapshot an ingest commits
// when it disables a spec — and requires the report to come back
// byte-identical each time and to end equal to an uninterrupted control.
func TestKillResumeJournalShapes(t *testing.T) {
	panicky := func(spec string) (predictor.Predictor, error) {
		p, err := zoo.New(spec)
		if err != nil {
			return nil, err
		}
		if spec == "smith:a=12" {
			return &panicAfterPredictor{Predictor: p, left: 1100}, nil
		}
		return p, nil
	}
	cases := []struct {
		name  string
		cfg   Config
		specs []string
		// shape must hold of the journal at some kill point.
		shape string
	}{
		{"records-only", Config{}, []string{"bimode:b=11", "gshare:i=12,h=12"},
			"header,recs,recs,recs,recs,recs,recs,recs,recs"},
		{"snapshot-then-tail", Config{CompactBytes: 3000}, []string{"bimode:b=11", "smith:a=12"},
			"header,snap,recs"},
		{"disabled-spec", Config{Build: panicky}, []string{"bimode:b=11", "smith:a=12"},
			"header,recs,recs,recs,recs,snap,recs"},
	}
	mem := testTrace(t, 2000)
	recs := mem.Records()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Dir = t.TempDir()
			s, base := newTestServer(t, tc.cfg)
			victim := createSession(t, base, tc.specs...)
			control := createSession(t, base, tc.specs...)
			path := journalPath(tc.cfg.Dir, victim.ID)

			seen := map[string]bool{}
			for i := 0; i < len(recs); i += 250 {
				// Alternate the wire formats: the journal holds what was
				// applied, whatever the body's encoding.
				body := recs[i : i+250]
				if i/250%2 == 0 {
					ingestText(t, base, victim.ID, textBody(body))
					ingestText(t, base, control.ID, textBody(body))
				} else {
					ingestColumnar(t, base, victim.ID, body, mem.StaticCount())
					ingestColumnar(t, base, control.ID, body, mem.StaticCount())
				}
				before, _ := rawReport(t, base, victim.ID)
				s.KillSession(victim.ID)
				seen[strings.Join(journalKinds(t, path), ",")] = true
				after, _ := rawReport(t, base, victim.ID)
				if !bytes.Equal(before, after) {
					t.Fatalf("report changed across kill at cursor %d:\nbefore: %s\nafter:  %s",
						i+250, before, after)
				}
			}
			if !seen[tc.shape] {
				t.Fatalf("journal never had shape %s; saw %v", tc.shape, seen)
			}

			rawV, rep := rawReport(t, base, victim.ID)
			rawC, _ := rawReport(t, base, control.ID)
			got := strings.ReplaceAll(string(rawV), victim.ID, "SESSION")
			want := strings.ReplaceAll(string(rawC), control.ID, "SESSION")
			if got != want {
				t.Fatalf("killed-and-resumed state diverged from uninterrupted control:\ngot:  %s\nwant: %s", got, want)
			}
			if tc.name == "disabled-spec" {
				// The frozen counts and the footnote placing the failure are
				// part of the byte-identical report; pin that they exist.
				disabled := fmt.Sprintf("spec %q disabled at record 1100", "smith:a=12")
				if len(rep.Footnotes) == 0 || !strings.HasPrefix(rep.Footnotes[len(rep.Footnotes)-1], disabled) {
					t.Fatalf("footnotes %q lack %q", rep.Footnotes, disabled)
				}
				if sr := rep.Specs[1]; !sr.Failed || sr.Mispredicts == 0 {
					t.Fatalf("disabled spec lost its frozen counts: %+v", sr)
				}
			}
		})
	}
}

// TestJournalCompactionBound pins the compaction rule that bounds
// replay: after every one of many small ingests, the record tail is no
// larger than CompactBytes before the first snapshot, and after it no
// larger than the snapshot's line or CompactBytes/8, whichever is more
// (capped by CompactBytes); and a compaction comes only when the tail
// is within a line or two of that bound, not before.
func TestJournalCompactionBound(t *testing.T) {
	// smith:a=10's snapshot line is ~8 KB here. At 12,000 bytes the first
	// compaction is CompactBytes' and the later ones the snapshot's; at
	// 120,000 bytes the later ones wait for CompactBytes/8 = 15,000.
	for _, tc := range []struct {
		compactAt  int64
		bySnapshot bool
	}{{12000, true}, {120000, false}} {
		t.Run(fmt.Sprint(tc.compactAt), func(t *testing.T) {
			dir := t.TempDir()
			_, base := newTestServer(t, Config{Dir: dir, CompactBytes: tc.compactAt})
			mem := testTrace(t, 40000)
			recs := mem.Records()
			limit := func(lj *loadedJournal) int64 {
				if lj.snap == nil {
					return tc.compactAt
				}
				return min(tc.compactAt, max(lj.snapBytes, tc.compactAt/8))
			}

			rep := createSession(t, base, "smith:a=10")
			path := journalPath(dir, rep.ID)
			first, later := 0, 0
			var maxLine int64
			prev := &loadedJournal{}
			const per = 40
			for i := 0; i+per <= len(recs); i += per {
				ingestText(t, base, rep.ID, textBody(recs[i:i+per]))
				lj := loadJournalFile(t, path)
				if lj.tailBytes > limit(lj) {
					t.Fatalf("after %d records: tail %d bytes, bound %d (snapshot %d bytes)", i+per, lj.tailBytes, limit(lj), lj.snapBytes)
				}
				if lj.snap == nil || lj.snap.Cursor != i+per {
					maxLine = max(maxLine, lj.tailBytes-prev.tailBytes)
					prev = lj
					continue
				}
				if prev.tailBytes+2*maxLine <= limit(prev) {
					t.Fatalf("after %d records: compacted a %d-byte tail, bound %d", i+per, prev.tailBytes, limit(prev))
				}
				switch {
				case prev.snap == nil:
					first++
				case (prev.snapBytes >= tc.compactAt/8) != tc.bySnapshot:
					t.Fatalf("after %d records: compaction bound by the %d-byte snapshot is %v, want %v", i+per, prev.snapBytes, !tc.bySnapshot, tc.bySnapshot)
				default:
					later++
				}
				prev = lj
			}
			if first != 1 || later == 0 {
				t.Fatalf("compactions: %d before the first snapshot, %d after; want 1 and some", first, later)
			}
		})
	}
}

// TestJournalReplayAbandoned: a request abandoned while its session is
// being restored answers 408 and leaves the journal alone — the session
// restores on the next request instead of being quarantined.
func TestJournalReplayAbandoned(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base, "bimode:b=11")
	mem := testTrace(t, 1000)
	ingestText(t, base, rep.ID, textBody(mem.Records()))
	committed, _ := rawReport(t, base, rep.ID)
	s.Kill()

	s.mu.Lock()
	sess := s.sessions[rep.ID]
	s.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.makeResident(ctx, sess)
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusRequestTimeout {
		t.Fatalf("abandoned restore: %v, want a 408", err)
	}
	if sess.resident || sess.specs != nil {
		t.Fatalf("abandoned restore left state behind")
	}
	if _, err := os.Stat(journalPath(dir, rep.ID) + ".damaged"); err == nil {
		t.Fatalf("abandoned restore quarantined the journal")
	}
	if after, _ := rawReport(t, base, rep.ID); !bytes.Equal(committed, after) {
		t.Fatalf("restore after an abandoned one diverged:\nwant: %s\ngot:  %s", committed, after)
	}
}

// ingestColumnar streams records as a BMC1 body, expecting success.
func ingestColumnar(t *testing.T, base, id string, recs []trace.Record, statics int) ingestResult {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, trace.NewMemory("", statics, recs)); err != nil {
		t.Fatal(err)
	}
	var res ingestResult
	resp := doJSON(t, "POST", base+"/v1/sessions/"+id+"/branches", &buf, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	return res
}

// journalLines returns a journal's lines without their newlines.
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// journalKinds names each journal line's kind: header, snap or recs.
func journalKinds(t *testing.T, path string) []string {
	t.Helper()
	var kinds []string
	for _, raw := range journalLines(t, path) {
		var line journalLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("journal line: %v", err)
		}
		switch {
		case line.Header != nil:
			kinds = append(kinds, "header")
		case line.Snap != nil:
			kinds = append(kinds, "snap")
		case line.Recs != nil:
			kinds = append(kinds, "recs")
		}
	}
	return kinds
}

// loadJournalFile scans a journal file as recovery would.
func loadJournalFile(t *testing.T, path string) *loadedJournal {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lj, err := loadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	return lj
}

// rewriteRecordLine applies edit to the journal's idx-th record line
// (negative counts from the end) and writes the line back as valid JSON.
func rewriteRecordLine(t *testing.T, path string, idx int, edit func(*recordsLine)) {
	t.Helper()
	lines := journalLines(t, path)
	var at []int
	for i, raw := range lines {
		if bytes.HasPrefix(raw, []byte(`{"recs":`)) {
			at = append(at, i)
		}
	}
	if idx < 0 {
		idx += len(at)
	}
	var line journalLine
	if err := json.Unmarshal(lines[at[idx]], &line); err != nil {
		t.Fatal(err)
	}
	edit(line.Recs)
	data, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	lines[at[idx]] = data
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalVersion1Upgrade: a journal written before record lines
// existed (header v1 + snapshot lines) still recovers, and its first
// commit compacts it to version 2, so code that knows only version 1
// refuses the file rather than skipping record lines it cannot read.
func TestJournalVersion1Upgrade(t *testing.T) {
	dir := t.TempDir()
	s1, base1 := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base1, "bimode:b=11")
	mem := testTrace(t, 2000)
	ingestText(t, base1, rep.ID, textBody(mem.Records()[:1000]))
	before, _ := rawReport(t, base1, rep.ID)

	s1.mu.Lock()
	sess := s1.sessions[rep.ID]
	s1.mu.Unlock()
	sess.mu <- struct{}{}
	hdr := sess.journal.hdr
	hdr.V = 1
	v1 := [][]byte{mustJSON(t, journalLine{Header: &hdr}), mustJSON(t, journalLine{Snap: sess.buildSnap()})}
	<-sess.mu
	s1.Kill()
	s1.Close()
	path := journalPath(dir, rep.ID)
	if err := os.WriteFile(path, append(bytes.Join(v1, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, base2 := newTestServer(t, Config{Dir: dir})
	if after, _ := rawReport(t, base2, rep.ID); !bytes.Equal(before, after) {
		t.Fatalf("version 1 journal recovered differently:\nbefore: %s\nafter:  %s", before, after)
	}
	ingestText(t, base2, rep.ID, textBody(mem.Records()[1000:]))
	if got := strings.Join(journalKinds(t, path), ","); got != "header,snap" {
		t.Fatalf("first commit to a version 1 journal left shape %s, want a compaction", got)
	}
	if lj := loadJournalFile(t, path); lj.hdr.V != journalVersion || lj.snap.Cursor != 2000 {
		t.Fatalf("upgraded journal: version %d, cursor %d", lj.hdr.V, lj.snap.Cursor)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
