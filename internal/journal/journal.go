// Package journal is the durability layer under the release store — and,
// since the log carries every store event in commit order, also its
// replication layer: an append-only log of store events
// (put/delete/charge) plus atomically replaced snapshots. The privacy
// argument makes this more than an availability feature — minting a
// release spends epsilon permanently, so a process that forgets what it
// has spent can be tricked into spending it again. The journal's
// contract is therefore asymmetric:
//
//   - An event is acknowledged only after its record is on disk (and,
//     by default, fsynced). A crash can lose at most the record being
//     written at the instant of the crash — an event that was never
//     acknowledged to any caller.
//   - Recovery restores a consistent prefix of acknowledged events. A
//     torn final record (partial header, short payload, or a checksum
//     mismatch that runs to end-of-file) is silently truncated, because
//     it is indistinguishable from the unacknowledged tail of a crashed
//     append — which also means later bit rot confined to the very last
//     record is absorbed the same way; that single-record ambiguity is
//     inherent to any log without an out-of-band commit marker. Damage
//     anywhere else — a bad checksum with more data behind it, a full
//     header failing its own checksum, or a record whose checksum
//     passes but whose content does not parse — cannot be a torn
//     append, and recovery fails loudly with ErrCorrupt rather than
//     under-reporting spent budget.
//
// On disk a record is framed as a 12-byte little-endian header —
// 4 bytes of payload length, 4 bytes of IEEE CRC32 over those length
// bytes, 4 bytes of IEEE CRC32 over the payload — followed by the
// JSON-encoded Record. The header checksum makes the framing itself
// self-checking: because the log is append-only and never preallocated,
// a torn append can only leave a *short* file, so a full header that
// fails its own checksum cannot be a torn write and is reported as
// corruption instead of silently desynchronizing the scan (which would
// drop every record after it). The payload for a put carries the
// release in the self-describing v2 wire format, so a journal is
// readable by anything that speaks dphist.DecodeRelease.
//
// As a replication log the journal adds three capabilities on top of
// the same framing: ReadFrom serves the suffix of the log at or after a
// sequence number (ErrCompacted when that suffix was folded into a
// snapshot, telling the reader to bootstrap from the snapshot instead),
// Updated hands out a broadcast channel closed on the next append so
// tailing readers can long-poll without spinning, and AppendRecord
// writes a record that already carries its sequence number — the
// follower side of the pipe, persisting shipped records under the
// primary's numbering so a replica's recovery point is a primary
// sequence.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/dphist/dphist/internal/jsonw"
)

// Op is the kind of store event a record describes.
type Op string

// The three journaled store events. Reads are never journaled: serving
// queries is free post-processing and changes no state.
const (
	OpPut    Op = "put"
	OpDelete Op = "delete"
	OpCharge Op = "charge"
)

// Record is one store event. Which fields are meaningful depends on Op:
// puts carry Name/Version/StoredAt/Payload, deletes carry Name, charges
// carry Label/Epsilon. Namespace and Seq are set on every record.
//
// The JSON tags document the on-disk shape, which AppendJSON writes by
// hand and Scan reads back through encoding/json.
type Record struct {
	Seq       uint64    `json:"seq"`
	Op        Op        `json:"op"`
	Namespace string    `json:"ns,omitempty"`
	Name      string    `json:"name,omitempty"`
	Version   int       `json:"version,omitempty"`
	StoredAt  time.Time `json:"stored_at,omitempty"`
	Label     string    `json:"label,omitempty"`
	Epsilon   float64   `json:"epsilon,omitempty"`
	// Payload is written into the record exactly as given, never
	// re-validated or compacted: it is the last field, so for a payload
	// that is compact, valid JSON with encoding/json's HTML-safe string
	// escaping — what dphist.AppendRelease and json.Marshal produce — the
	// encoded record equals json.Marshal(rec) byte for byte. Puts carry
	// the release in the self-describing v2 wire format.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// ErrCorrupt reports journal or snapshot damage that cannot be a torn
// final append — recovery refuses to guess at the state.
var ErrCorrupt = errors.New("journal: corrupt record")

// ErrClosed reports an append to a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrCompacted reports a ReadFrom floor that predates the log: the
// requested records were folded into a snapshot and discarded, so a
// replica asking for them must bootstrap from the snapshot instead.
var ErrCompacted = errors.New("journal: sequence compacted into snapshot")

const (
	headerSize = 12
	// MaxRecordSize bounds one framed payload. A declared length past it
	// can never be valid, so the scanner need not allocate for it.
	MaxRecordSize = 64 << 20
)

// Marshal frames a record for appending: header (length, header CRC32,
// payload CRC32) plus the record's JSON, built by AppendJSON in one
// allocation with the release payload copied in as given. Exposed for
// tests and fuzzing; Append uses it.
func Marshal(rec Record) ([]byte, error) {
	size := headerSize + 160 + len(rec.Payload) + 6*(len(rec.Namespace)+len(rec.Name)+len(rec.Label))
	frame, err := AppendJSON(make([]byte, headerSize, size), rec)
	if err != nil {
		return nil, err
	}
	payload := frame[headerSize:]
	if len(payload) > MaxRecordSize {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(payload), MaxRecordSize)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[0:4]))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// AppendJSON appends the JSON encoding of rec to dst: the bytes
// json.Marshal(rec) produces, given a Payload of the form documented on
// Record. Payload is copied, not scanned. A StoredAt RFC 3339 cannot
// express, or a NaN or infinite Epsilon, fails as it fails json.Marshal.
// The replication stream writes each shipped record with it.
func AppendJSON(dst []byte, rec Record) ([]byte, error) {
	b := append(dst, `{"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	b = append(b, `,"op":`...)
	b = jsonw.AppendString(b, string(rec.Op))
	if rec.Namespace != "" {
		b = append(b, `,"ns":`...)
		b = jsonw.AppendString(b, rec.Namespace)
	}
	if rec.Name != "" {
		b = append(b, `,"name":`...)
		b = jsonw.AppendString(b, rec.Name)
	}
	if rec.Version != 0 {
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(rec.Version), 10)
	}
	// omitempty never omits a struct, so every record carries stored_at.
	b = append(b, `,"stored_at":`...)
	b, err := jsonw.AppendTime(b, rec.StoredAt)
	if err != nil {
		return dst, err
	}
	if rec.Label != "" {
		b = append(b, `,"label":`...)
		b = jsonw.AppendString(b, rec.Label)
	}
	if rec.Epsilon != 0 {
		b = append(b, `,"epsilon":`...)
		if b, err = jsonw.AppendFloat(b, rec.Epsilon); err != nil {
			return dst, err
		}
	}
	if len(rec.Payload) > 0 {
		b = append(b, `,"payload":`...)
		b = append(b, rec.Payload...)
	}
	return append(b, '}'), nil
}

// Scan walks the framed records in data, calling fn for each in order.
// It returns the sequence number of the last delivered record and the
// byte length of the valid prefix. A torn tail — a partial header at
// the end of data, a checksummed length that runs past it, or a payload
// checksum mismatch on the final frame — ends the scan cleanly with
// valid < len(data). Anything a torn append cannot produce — a full
// header failing its own checksum, a payload checksum mismatch with
// data behind it, an impossible declared length, an unparseable
// payload, or a non-increasing sequence number — returns ErrCorrupt.
// An error from fn aborts the scan and is returned as-is.
func Scan(data []byte, fn func(Record) error) (lastSeq uint64, valid int, err error) {
	off := 0
	for {
		if off+headerSize > len(data) {
			return lastSeq, off, nil // torn or absent header
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		hsum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		psum := binary.LittleEndian.Uint32(data[off+8 : off+12])
		if crc32.ChecksumIEEE(data[off:off+4]) != hsum {
			// The log is append-only and never preallocated, so a torn
			// append leaves a short file, never a full garbage header.
			return lastSeq, off, fmt.Errorf("%w: header checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if length > MaxRecordSize {
			return lastSeq, off, fmt.Errorf("%w: declared length %d at offset %d exceeds limit", ErrCorrupt, length, off)
		}
		end := off + headerSize + length
		if end > len(data) {
			return lastSeq, off, nil // payload torn off mid-write
		}
		payload := data[off+headerSize : end]
		if crc32.ChecksumIEEE(payload) != psum {
			if end == len(data) {
				return lastSeq, off, nil // final frame, torn within its sectors
			}
			return lastSeq, off, fmt.Errorf("%w: payload checksum mismatch at offset %d with %d bytes following",
				ErrCorrupt, off, len(data)-end)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return lastSeq, off, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Seq <= lastSeq {
			return lastSeq, off, fmt.Errorf("%w: sequence %d at offset %d does not advance past %d",
				ErrCorrupt, rec.Seq, off, lastSeq)
		}
		if err := fn(rec); err != nil {
			return lastSeq, off, err
		}
		lastSeq = rec.Seq
		off = end
	}
}

// Option configures an opened journal.
type Option func(*Journal)

// WithSync controls whether every append is fsynced before it returns.
// The default is true — required for the crash-durability contract; turn
// it off only for benchmarks and tests that tolerate losing the tail.
func WithSync(sync bool) Option {
	return func(j *Journal) { j.sync = sync }
}

// WithBaseSeq floors the sequence numbering: the first append is
// assigned at least base+1. Callers replaying on top of a snapshot pass
// the snapshot's sequence so numbering stays monotone across a write-
// ahead log that was reset after the snapshot. The base also marks the
// compaction horizon for ReadFrom: sequences at or below it live only
// in the snapshot.
func WithBaseSeq(base uint64) Option {
	return func(j *Journal) {
		j.baseSeq = base
		if j.nextSeq <= base {
			j.nextSeq = base + 1
		}
	}
}

// Journal is an open, appendable log file. Safe for concurrent use. A
// failed write leaves the file in an unknown state, so the journal
// becomes sticky-broken: every later append returns the first error.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	nextSeq uint64
	baseSeq uint64 // sequences <= baseSeq live only in the snapshot
	sync    bool
	broken  error
	watch   chan struct{} // closed on the next append; see Updated

	// readFrom/readOff memoize where the last ReadFrom stopped: when the
	// next call asks for exactly readFrom, scanning resumes at byte
	// readOff instead of the file start, so a tailing replica pays for
	// the new suffix only, not the whole log on every wake. Appends only
	// extend the file past readOff; truncation (resetLocked) clears it.
	readFrom uint64
	readOff  int64
}

// Open reads the log at path (creating it if absent), delivers every
// recovered record to fn in order, truncates a torn tail, and returns
// the journal positioned for appending. Recovery failures — ErrCorrupt
// damage or an fn error — close the file and return the error; the
// caller decides whether to repair or refuse to serve.
func Open(path string, fn func(Record) error, opts ...Option) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	lastSeq, valid, err := Scan(data, fn)
	if err != nil {
		return nil, fmt.Errorf("journal: recover %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Make the file's directory entry durable too: an fsynced record in
	// a file whose creation was never synced can vanish with the whole
	// file on power loss, silently zeroing the ledger. Best effort, as
	// for snapshots.
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = dir.Sync()
		dir.Close()
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{f: f, nextSeq: lastSeq + 1, sync: true}
	for _, opt := range opts {
		opt(j)
	}
	return j, nil
}

// Append assigns the record the next sequence number, writes it, and —
// under the default sync policy — fsyncs before returning. The assigned
// sequence is returned; the caller must not acknowledge the event to
// anyone until Append has.
func (j *Journal) Append(rec Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec.Seq = j.nextSeq
	if err := j.appendLocked(rec); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// AppendRecord writes a record that already carries its sequence number
// — a replication shipment from a primary — preserving that numbering
// so the local log stays addressable by primary sequence. The sequence
// must advance past everything already in the log; numbering continues
// from it, so Append and AppendRecord can interleave only monotonically.
func (j *Journal) AppendRecord(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Seq < j.nextSeq {
		return fmt.Errorf("journal: shipped sequence %d does not advance past %d", rec.Seq, j.nextSeq-1)
	}
	return j.appendLocked(rec)
}

// appendLocked frames and writes rec (whose Seq the caller has set),
// fsyncs under the sync policy, advances nextSeq past it, and wakes
// tailing readers. Caller holds j.mu.
func (j *Journal) appendLocked(rec Record) error {
	if j.f == nil {
		return ErrClosed
	}
	if j.broken != nil {
		return fmt.Errorf("journal: unusable after earlier write failure: %w", j.broken)
	}
	frame, err := Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		j.broken = err
		return err
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			j.broken = err
			return err
		}
	}
	j.nextSeq = rec.Seq + 1
	if j.watch != nil {
		close(j.watch)
		j.watch = nil
	}
	return nil
}

// Updated returns a channel that is closed by the next successful
// append (or by Close, so waiters never hang on a dead log). Tailing
// readers grab the channel, read the log suffix, and block on the
// channel only if the read came up empty — taking the channel before
// reading closes the race where a record lands in between.
func (j *Journal) Updated() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	if j.watch == nil {
		j.watch = make(chan struct{})
	}
	return j.watch
}

// ReadFrom returns every record in the log with sequence >= from, in
// order. A from at or below the compaction horizon fails with
// ErrCompacted — those records were folded into a snapshot and the
// reader must bootstrap from it. The read scans the on-disk log, so it
// sees exactly what a recovery would and shares Scan's corruption
// guarantees; a tailing reader that advances from one call to the next
// resumes at the memoized file offset and pays only for the new
// suffix, keeping per-wake streaming cost independent of log size.
func (j *Journal) ReadFrom(from uint64) ([]Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, ErrClosed
	}
	if from <= j.baseSeq {
		return nil, fmt.Errorf("%w: sequence %d is at or below horizon %d", ErrCompacted, from, j.baseSeq)
	}
	info, err := j.f.Stat()
	if err != nil {
		return nil, err
	}
	var start int64
	if j.readOff > 0 && from == j.readFrom && j.readOff <= info.Size() {
		start = j.readOff // resume the previous tail scan
	}
	data := make([]byte, info.Size()-start)
	if len(data) > 0 {
		if _, err := j.f.ReadAt(data, start); err != nil {
			return nil, err
		}
	}
	var out []Record
	_, valid, err := Scan(data, func(rec Record) error {
		if rec.Seq >= from {
			out = append(out, rec)
		}
		return nil
	})
	if err != nil {
		j.readFrom, j.readOff = 0, 0
		return nil, err
	}
	j.readOff = start + int64(valid)
	if len(out) > 0 {
		j.readFrom = out[len(out)-1].Seq + 1
	} else {
		j.readFrom = from
	}
	return out, nil
}

// NextSeq returns the sequence number the next append will be assigned.
func (j *Journal) NextSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// Reset discards the log's contents after its events have been folded
// into a durable snapshot. Sequence numbering continues from where it
// was, so records appended after the reset still sort after the
// snapshot's sequence — which becomes the new compaction horizon:
// ReadFrom now refuses the discarded range with ErrCompacted.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resetLocked(j.nextSeq - 1)
}

// Rebase discards the log's contents and jumps the sequence numbering
// past base — the follower side of snapshot bootstrap: after loading a
// primary snapshot taken at base, the replica's log restarts empty with
// base as its compaction horizon, ready for shipped records at base+1.
func (j *Journal) Rebase(base uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.resetLocked(base); err != nil {
		return err
	}
	if j.nextSeq <= base {
		j.nextSeq = base + 1
	}
	return nil
}

// resetLocked truncates the file and sets the compaction horizon.
// Caller holds j.mu.
func (j *Journal) resetLocked(base uint64) error {
	if j.f == nil {
		return ErrClosed
	}
	if err := j.f.Truncate(0); err != nil {
		j.broken = err
		return err
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		j.broken = err
		return err
	}
	j.broken = nil
	j.baseSeq = base
	j.readFrom, j.readOff = 0, 0 // the memoized offset died with the bytes
	return nil
}

// Close syncs and closes the log file. Further appends return ErrClosed,
// and any reader blocked on Updated is woken to observe the closure.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if j.watch != nil {
		close(j.watch)
		j.watch = nil
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// snapshotBufferSize is the write buffer between a snapshot's writer
// and its file: a streamed document costs this much memory plus what
// the writer holds, however large the document grows.
const snapshotBufferSize = 64 << 10

// WriteSnapshot atomically replaces path with the document write
// produces. The document streams through a buffered writer into a
// temporary file, which is fsynced and renamed over path, so a crash at
// any instant leaves either the old snapshot or the new one — never a
// partial file under the live name. If write or any file operation
// fails, the temporary file is removed and path is left untouched.
func WriteSnapshot(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, snapshotBufferSize)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// ReadSnapshot decodes the snapshot at path into v. The boolean reports
// whether a snapshot existed; a snapshot that exists but does not parse
// is corruption and fails loudly.
func ReadSnapshot(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, path, err)
	}
	return true, nil
}
