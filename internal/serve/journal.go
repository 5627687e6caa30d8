package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The per-session journal: an append-only JSONL file, one per session.
// Its first line is the session's immutable header. After that come two
// kinds of line:
//
//   - a record line per acknowledged ingest: the request's applied
//     records, static ids already remapped into the session's id space,
//     as one CRC-guarded BMC1 blob (trace.ColumnarEncoder), plus the cursor
//     they start at;
//   - a snapshot line: the session's complete state (predictor.Snapshotter
//     bytes, aliasing owners, site table, counts, footnotes). Compaction
//     writes one, and so does an ingest that disabled a spec, because a
//     runtime panic need not happen again on replay.
//
// A commit therefore costs as much as the request, not as much as the
// predictor tables. Recovery is the last snapshot (fresh predictors if
// there is none) followed by a replay of the record lines after it,
// through the same session.applyChunk the requests took.
//
// The damage rules follow sim.Journal (DESIGN.md §11). A final line that
// does not parse is the residue of a killed writer: it loses only the
// request it was acknowledging, and reopening the journal cuts it off
// before the next append. Anything else that does not check out is
// refused rather than guessed at: a line that does not parse before the
// end, a record line whose BMC1 checksum fails (a line that parses was
// not torn, so this holds for the final line too), a record line that
// does not start at the replayed cursor, or a replayed static id that
// differs from the journaled one. The caller quarantines the file.
//
// Each line is flushed before the ingest is acknowledged, but not
// fsynced; compaction syncs its temp file but not the directory. The
// journal survives a process kill, not an OS crash or power loss.
//
// One writer per journal: a session's requests are serialized under the
// session lock, so exactly one goroutine ever appends to a given file
// (the invariant sim.Journal documents in DESIGN.md §11; the concurrent-
// sessions test there pins that many journals in parallel are fine, one
// writer each).
//
// Compaction rewrites the journal as header + a fresh snapshot into a
// temp file and renames it into place. It happens when the record tail
// since the last snapshot would pass compactLimit: CompactBytes before
// the first snapshot; after it, the snapshot line's own size, but no
// less than CompactBytes/8 and no more than CompactBytes. Replay then
// costs about what loading the session's state does, and a compaction
// comes at most once per CompactBytes/8 of committed records.

// journalVersion guards the line schema. Version 2 added record lines.
// A version 1 journal (header + snapshots) still loads; its first commit
// compacts it, rewriting the header as version 2, so code that only
// knows version 1 refuses the file instead of skipping record lines.
const journalVersion = 2

// sessionHeader is the journal's first line: the session's identity and
// admitted plan, immutable for the session's life.
type sessionHeader struct {
	V         int      `json:"v"`
	ID        string   `json:"id"`
	Name      string   `json:"name,omitempty"`
	Specs     []string `json:"specs"`
	Footnotes []string `json:"footnotes,omitempty"`
}

// sessionSnap is one committed state snapshot: everything needed to
// rebuild the session exactly — the site table (dense static id -> PC,
// so the slice index is the id), per-static occurrence counts, the
// cursor, runtime footnotes accrued since creation, and per-spec state.
type sessionSnap struct {
	Cursor    int        `json:"cursor"`
	PCs       []uint64   `json:"pcs,omitempty"`
	Occ       []int64    `json:"occ,omitempty"`
	Footnotes []string   `json:"footnotes,omitempty"`
	Specs     []specSnap `json:"specs"`
}

// specSnap is one predictor's slice of a snapshot. State carries the
// predictor.Snapshotter bytes; Last packs the aliasing tracker's
// consulted-counter ownership array (little-endian int32s). A failed
// spec (disabled by a runtime panic, see session.runSpecChunk) keeps its
// frozen counts but no State.
type specSnap struct {
	Spec             string  `json:"spec"`
	Mispredicts      int64   `json:"mispredicts"`
	Miss             []int64 `json:"miss,omitempty"`
	State            []byte  `json:"state,omitempty"`
	Last             []byte  `json:"last,omitempty"`
	AliasConflicts   int64   `json:"alias_conflicts"`
	AliasDestructive int64   `json:"alias_destructive"`
	Failed           bool    `json:"failed,omitempty"`
}

// recordsLine is one acknowledged ingest: the records it applied, in
// order, as a BMC1 trace whose Static ids are the session's.
type recordsLine struct {
	At   int    `json:"at"` // the session cursor before these records
	BMC1 []byte `json:"bmc1"`
}

// journalLine is the on-disk union: exactly one field set per line.
type journalLine struct {
	Header *sessionHeader `json:"header,omitempty"`
	Snap   *sessionSnap   `json:"snap,omitempty"`
	Recs   *recordsLine   `json:"recs,omitempty"`
}

// sessionJournal is the open handle a resident session appends through.
type sessionJournal struct {
	path      string
	hdr       sessionHeader
	f         *os.File
	w         *bufio.Writer
	snapBytes int64 // length of the last snapshot line, 0 before the first
	tailBytes int64 // bytes of record lines after it
	compactAt int64
}

// loadedJournal is what a scan of a journal yields: the header, the last
// snapshot (nil if none was ever written) and the record lines after it,
// plus where the last intact line ends.
type loadedJournal struct {
	hdr       sessionHeader
	snap      *sessionSnap
	tail      []*recordsLine
	snapBytes int64
	tailBytes int64
	good      int64 // offset just past the last intact line
	newline   bool  // whether that line ends in '\n'
}

// journalPath maps a session id to its file.
func journalPath(dir, id string) string {
	return filepath.Join(dir, id+".session")
}

// createSessionJournal starts a fresh journal, writing the header line.
func createSessionJournal(path string, hdr sessionHeader, compactAt int64) (*sessionJournal, error) {
	hdr.V = journalVersion
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &sessionJournal{path: path, hdr: hdr, f: f, w: bufio.NewWriter(f), compactAt: compactAt}
	data, err := json.Marshal(journalLine{Header: &j.hdr})
	if err == nil {
		err = j.writeLine(data)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// readSessionHeader scans a journal for its header; the startup scan
// uses it to register spilled sessions without loading their state.
// Lines that do not parse are refused here too.
func readSessionHeader(path string) (sessionHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return sessionHeader{}, err
	}
	defer f.Close()
	lj, err := loadJournal(f)
	if err != nil {
		return sessionHeader{}, err
	}
	return lj.hdr, nil
}

// openSessionJournal loads a journal and reopens it for appending. A
// torn final line is cut off, so the next append starts a clean line;
// any other damage is an error and the session is unrecoverable by
// contract (the caller quarantines the file rather than serving guessed
// state). Record lines are checked when they are replayed.
func openSessionJournal(path string, compactAt int64) (_ *sessionJournal, _ *loadedJournal, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	lj, err := loadJournal(f)
	if err != nil {
		return nil, nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, nil, err
	}
	if size != lj.good || !lj.newline {
		if err := f.Truncate(lj.good); err != nil {
			return nil, nil, err
		}
		if _, err := f.Seek(lj.good, io.SeekStart); err != nil {
			return nil, nil, err
		}
		if !lj.newline {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				return nil, nil, err
			}
		}
	}
	j := &sessionJournal{path: path, hdr: lj.hdr, f: f, w: bufio.NewWriter(f),
		snapBytes: lj.snapBytes, tailBytes: lj.tailBytes, compactAt: compactAt}
	return j, lj, nil
}

// loadJournal scans r: the header, the last good snapshot, and the
// record lines after it.
func loadJournal(r io.Reader) (*loadedJournal, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	lj := &loadedJournal{}
	lineNo := 0
	var off int64
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("serve: reading session journal: %w", err)
		}
		if len(raw) == 0 {
			break
		}
		lineNo++
		n := int64(len(raw))
		body := bytes.TrimSuffix(raw, []byte{'\n'})
		if len(body) == 0 {
			off += n
			continue
		}
		var line journalLine
		if err := json.Unmarshal(body, &line); err != nil {
			// The torn-tail rule of sim.Journal: a malformed final line is
			// the residue of a killed writer and loses only the request it
			// was acknowledging; malformed anywhere else, the file lies.
			if _, perr := br.Peek(1); lineNo > 1 && perr == io.EOF {
				break
			}
			return nil, fmt.Errorf("serve: session journal line %d malformed: %v", lineNo, err)
		}
		switch {
		case lineNo == 1:
			if line.Header == nil {
				return nil, fmt.Errorf("serve: session journal does not start with a header")
			}
			if line.Header.V < 1 || line.Header.V > journalVersion {
				return nil, fmt.Errorf("serve: session journal version %d, want 1..%d", line.Header.V, journalVersion)
			}
			lj.hdr = *line.Header
		case line.Snap != nil:
			lj.snap, lj.tail = line.Snap, nil
			lj.snapBytes, lj.tailBytes = n, 0
		case line.Recs != nil:
			lj.tail = append(lj.tail, line.Recs)
			lj.tailBytes += n
		default:
			return nil, fmt.Errorf("serve: session journal line %d holds no snapshot or records", lineNo)
		}
		off += n
		lj.good, lj.newline = off, raw[len(raw)-1] == '\n'
	}
	if lineNo == 0 {
		return nil, fmt.Errorf("serve: session journal is empty")
	}
	return lj, nil
}

// appendRecords commits one ingest's records — bmc1, a columnar trace
// whose Static ids are the session's, starting at cursor at — as a
// record line, flushed before it returns, so a kill after it returns
// loses nothing the client was told is committed. When the line would
// grow the tail past compactLimit, the journal is compacted to header +
// snap() instead.
func (j *sessionJournal) appendRecords(at int, bmc1 []byte, snap func() *sessionSnap) error {
	data, err := json.Marshal(journalLine{Recs: &recordsLine{At: at, BMC1: bmc1}})
	if err != nil {
		return err
	}
	if j.hdr.V != journalVersion || j.tailBytes+int64(len(data))+1 > j.compactLimit() {
		return j.compact(snap)
	}
	if err := j.writeLine(data); err != nil {
		return err
	}
	j.tailBytes += int64(len(data)) + 1
	return nil
}

// compactLimit is the largest record tail the journal keeps. Before the
// first snapshot it is CompactBytes. After it, the tail is compacted
// once it outgrows the snapshot's line, so replay costs about what
// loading the snapshot does — but not before it reaches an eighth of
// CompactBytes, so a small snapshot does not make every few ACKs pay a
// compaction's fsync and rename.
func (j *sessionJournal) compactLimit() int64 {
	if j.snapBytes == 0 {
		return j.compactAt
	}
	return min(j.compactAt, max(j.snapBytes, j.compactAt/8))
}

// appendSnap commits a full snapshot line; the record tail restarts
// after it.
func (j *sessionJournal) appendSnap(snap *sessionSnap) error {
	if j.hdr.V != journalVersion {
		return j.compact(func() *sessionSnap { return snap })
	}
	data, err := json.Marshal(journalLine{Snap: snap})
	if err != nil {
		return err
	}
	if err := j.writeLine(data); err != nil {
		return err
	}
	j.snapBytes, j.tailBytes = int64(len(data))+1, 0
	return nil
}

// writeLine appends one marshaled line and flushes.
func (j *sessionJournal) writeLine(data []byte) error {
	j.w.Write(data) // a failed Write sticks in w; Flush reports it
	j.w.WriteByte('\n')
	return j.w.Flush()
}

// compact rewrites the journal as header + snap() via temp-file-and-
// rename, so the switch is atomic: a kill at any point leaves either the
// old journal (complete) or the new one (complete), never a half-file.
func (j *sessionJournal) compact(snap func() *sessionSnap) error {
	j.hdr.V = journalVersion
	hdr, err := json.Marshal(journalLine{Header: &j.hdr})
	if err != nil {
		return err
	}
	body, err := json.Marshal(journalLine{Snap: snap()})
	if err != nil {
		return err
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	// A failed Write sticks in w; the Flush below reports it.
	w.Write(append(hdr, '\n'))
	w.Write(append(body, '\n'))
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return err
	}
	old.Close()
	j.f, j.w = nf, bufio.NewWriter(nf)
	j.snapBytes, j.tailBytes = int64(len(body))+1, 0
	return nil
}

// close releases the file handle; the journal stays on disk.
func (j *sessionJournal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// remove closes and deletes the journal (session deletion).
func (j *sessionJournal) remove() error {
	err := j.close()
	if rerr := os.Remove(j.path); err == nil {
		err = rerr
	}
	return err
}

// quarantine renames a damaged journal aside so the session id can be
// reused while the evidence survives for inspection.
func quarantine(path string) {
	os.Rename(path, path+".damaged")
}
