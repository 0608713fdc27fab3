package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func collect(t *testing.T, path string) ([]Record, *Journal) {
	t.Helper()
	var recs []Record
	j, err := Open(path, func(r Record) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return recs, j
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := j.Append(Record{Op: OpCharge, Namespace: "default", Label: "t", Epsilon: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	_, j := collect(t, path)
	seq, err := j.Append(Record{Op: OpPut, Namespace: "ns", Name: "a", Version: 1,
		StoredAt: time.Unix(5, 0).UTC(), Payload: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d", seq)
	}
	appendN(t, j, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, j2 := collect(t, path)
	defer j2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records", len(recs))
	}
	r := recs[0]
	if r.Seq != 1 || r.Op != OpPut || r.Namespace != "ns" || r.Name != "a" ||
		r.Version != 1 || !r.StoredAt.Equal(time.Unix(5, 0)) || string(r.Payload) != `{"x":1}` {
		t.Fatalf("record = %+v", r)
	}
	if recs[2].Seq != 3 {
		t.Fatalf("last seq = %d", recs[2].Seq)
	}
	// Appends continue the sequence.
	if seq, err := j2.Append(Record{Op: OpDelete, Name: "a"}); err != nil || seq != 4 {
		t.Fatalf("append after reopen: seq %d, err %v", seq, err)
	}
}

// The recovery contract, table-driven over the ways a WAL file can be
// damaged: torn tails restore the valid prefix, mid-file corruption
// fails loudly.
func TestRecoveryDamageMatrix(t *testing.T) {
	makeWAL := func(t *testing.T, n int) (string, []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		_, j := collect(t, path)
		appendN(t, j, n)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}
	frameEnds := func(data []byte) []int {
		var ends []int
		off := 0
		for off+headerSize <= len(data) {
			off += headerSize + int(binary.LittleEndian.Uint32(data[off:off+4]))
			ends = append(ends, off)
		}
		return ends
	}

	cases := []struct {
		name    string
		mutate  func(t *testing.T, data []byte, ends []int) []byte
		want    int  // records recovered (when !corrupt)
		corrupt bool // Open must fail with ErrCorrupt
	}{
		{"empty file", func(t *testing.T, d []byte, e []int) []byte { return nil }, 0, false},
		{"intact", func(t *testing.T, d []byte, e []int) []byte { return d }, 3, false},
		{"torn header", func(t *testing.T, d []byte, e []int) []byte { return d[:e[1]+5] }, 2, false},
		{"torn payload", func(t *testing.T, d []byte, e []int) []byte { return d[:e[1]+headerSize+4] }, 2, false},
		{"final record truncated", func(t *testing.T, d []byte, e []int) []byte { return d[:len(d)-1] }, 2, false},
		{"short garbage appended", func(t *testing.T, d []byte, e []int) []byte {
			return append(d, 0xde, 0xad, 0xbe, 0xef) // fewer bytes than a header: reads as torn
		}, 3, false},
		{"bit flip in final record", func(t *testing.T, d []byte, e []int) []byte {
			d[len(d)-2] ^= 0x40
			return d
		}, 2, false},
		{"bit flip mid-file", func(t *testing.T, d []byte, e []int) []byte {
			d[e[0]+headerSize+2] ^= 0x40
			return d
		}, 0, true},
		{"header length corrupted mid-file", func(t *testing.T, d []byte, e []int) []byte {
			binary.LittleEndian.PutUint32(d[e[0]:e[0]+4], uint32(len(d))) // header checksum no longer matches
			return d
		}, 0, true},
		{"full garbage header appended", func(t *testing.T, d []byte, e []int) []byte {
			// An append can only leave a short file, so a whole bad header
			// must be disk damage, not a tear.
			return append(d, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef)
		}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, data := makeWAL(t, 3)
			mutated := tc.mutate(t, append([]byte(nil), data...), frameEnds(data))
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			var recs []Record
			j, err := Open(path, func(r Record) error { recs = append(recs, r); return nil })
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(recs) != tc.want {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.want)
			}
			// Recovery truncated the tail: appending then reopening must
			// see exactly want+1 records with a monotone sequence.
			if _, err := j.Append(Record{Op: OpCharge, Label: "after", Epsilon: 1}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			recs2, j2 := collect(t, path)
			defer j2.Close()
			if len(recs2) != tc.want+1 {
				t.Fatalf("after repair-and-append: %d records, want %d", len(recs2), tc.want+1)
			}
			if recs2[len(recs2)-1].Label != "after" {
				t.Fatal("appended record lost")
			}
		})
	}
}

func TestScanRejectsNonMonotoneSeq(t *testing.T) {
	a, err := Marshal(Record{Seq: 2, Op: OpCharge})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(Record{Seq: 2, Op: OpCharge})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Scan(append(a, b...), func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestScanOversizeLengthIsCorrupt(t *testing.T) {
	// A header whose own checksum passes but declares an impossible
	// length was never written by Append — loud corruption, even at the
	// tail.
	data := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(data[0:4], MaxRecordSize+1)
	binary.LittleEndian.PutUint32(data[4:8], crc32.ChecksumIEEE(data[0:4]))
	if _, _, err := Scan(data, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	// A partial header at the tail is a torn append.
	if _, valid, err := Scan(data[:headerSize-4], func(Record) error { return nil }); err != nil || valid != 0 {
		t.Fatalf("partial header: valid %d err %v", valid, err)
	}
}

func TestResetKeepsSequenceMonotone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	_, j := collect(t, path)
	appendN(t, j, 5)
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if seq, err := j.Append(Record{Op: OpCharge, Label: "x", Epsilon: 1}); err != nil || seq != 6 {
		t.Fatalf("post-reset seq = %d, err %v", seq, err)
	}
	j.Close()
	recs, j2 := collect(t, path)
	defer j2.Close()
	if len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("post-reset replay = %+v", recs)
	}
}

func TestWithBaseSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j, err := Open(path, func(Record) error { return nil }, WithBaseSeq(41))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if seq, err := j.Append(Record{Op: OpCharge, Label: "x", Epsilon: 1}); err != nil || seq != 42 {
		t.Fatalf("seq = %d, err %v", seq, err)
	}
}

func TestClosedJournalRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	_, j := collect(t, path)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Op: OpCharge}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	type state struct {
		Seq   uint64   `json:"seq"`
		Names []string `json:"names"`
	}
	var missing state
	if found, err := ReadSnapshot(path, &missing); found || err != nil {
		t.Fatalf("missing snapshot: found %v err %v", found, err)
	}
	write := func(v state) error {
		return WriteSnapshot(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
	}
	want := state{Seq: 7, Names: []string{"a", "b"}}
	if err := write(want); err != nil {
		t.Fatal(err)
	}
	var got state
	if found, err := ReadSnapshot(path, &got); !found || err != nil {
		t.Fatalf("found %v err %v", found, err)
	}
	if got.Seq != 7 || len(got.Names) != 2 {
		t.Fatalf("got %+v", got)
	}
	// Overwrite is atomic-replace: the temp file never lingers.
	if err := write(state{Seq: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp snapshot left behind: %v", err)
	}
	// A partial snapshot fails loudly.
	if err := os.WriteFile(path, []byte(`{"seq":9,"na`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial snapshot err = %v, want ErrCorrupt", err)
	}
}

// A snapshot write that fails at any point — in the caller's writer
// before a byte is written, after part of the document has reached the
// temporary file, or in the file itself — leaves the previous snapshot
// byte for byte and no temporary file; one that succeeds replaces it.
func TestWriteSnapshotFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	old := []byte(`{"seq":1}`)
	if err := WriteSnapshot(path, func(w io.Writer) error { _, err := w.Write(old); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	chunk := make([]byte, 1024)
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T)
		write func(t *testing.T, w io.Writer) error
	}{
		{"callback error", nil, func(*testing.T, io.Writer) error { return boom }},
		{"callback error mid-document", nil, func(t *testing.T, w io.Writer) error {
			for n := 0; n < 2*snapshotBufferSize; n += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return err
				}
			}
			info, err := os.Stat(path + ".tmp")
			if err != nil || info.Size() < snapshotBufferSize {
				t.Errorf("temporary file before the failure: %v, %v; want part of the document", info, err)
			}
			return boom
		}},
		{"writer fails mid-document", func(t *testing.T) {
			// Every write to /dev/full fails with ENOSPC: the first buffer
			// flush fails once the document outgrows the write buffer.
			if _, err := os.Stat("/dev/full"); err != nil {
				t.Skip("no /dev/full")
			}
			if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
				t.Fatal(err)
			}
		}, func(_ *testing.T, w io.Writer) error {
			for n := 0; n < 4*snapshotBufferSize; n += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				tc.setup(t)
			}
			err := WriteSnapshot(path, func(w io.Writer) error { return tc.write(t, w) })
			if err == nil {
				t.Fatal("failed snapshot write reported success")
			}
			if got, rerr := os.ReadFile(path); rerr != nil || string(got) != string(old) {
				t.Fatalf("previous snapshot after %v: %q, %v", err, got, rerr)
			}
			if _, serr := os.Lstat(path + ".tmp"); !os.IsNotExist(serr) {
				t.Fatalf("temporary file left behind after %v: %v", err, serr)
			}
		})
	}
	if err := WriteSnapshot(path, func(w io.Writer) error { _, err := w.Write([]byte(`{"seq":2}`)); return err }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != `{"seq":2}` {
		t.Fatalf("replaced snapshot: %q, %v", got, err)
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// encodeRecords are put, charge and delete records with the field
// edges the hand-written encoder must match: local and zero times,
// strings needing HTML and control escapes, a negative zero epsilon
// (omitted, as omitempty omits it) and exponent-form epsilons.
func encodeRecords() []Record {
	payload := json.RawMessage(`{"version":2,"strategy":"laplace","epsilon":0.5,"auto":{"strategy":"a\u003cb"},"noisy":[1.5,-2,1e-7],"counts":[1,0,2]}`)
	return []Record{
		{Seq: 1, Op: OpPut, Namespace: "default", Name: "traffic", Version: 3,
			StoredAt: time.Date(2026, 3, 4, 5, 6, 7, 891011, time.UTC), Payload: payload},
		{Seq: 2, Op: OpPut, Namespace: "geo.analytics", Name: "a<b>&\"q\"\n é\x80", Version: 1 << 40,
			StoredAt: time.Date(1999, 12, 31, 23, 59, 59, 0, time.FixedZone("x", -5*3600)), Payload: payload},
		{Seq: 3, Op: OpCharge, Namespace: "default", Label: "release:universal", Epsilon: 0.25},
		{Seq: 4, Op: OpCharge, Namespace: "t", Label: "<auto>", Epsilon: 1e-7},
		{Seq: 5, Op: OpCharge, Namespace: "t", Epsilon: 1e21},
		{Seq: 6, Op: OpCharge, Namespace: "t", Epsilon: math.Copysign(0, -1)},
		{Seq: 7, Op: OpDelete, Namespace: "default", Name: "traffic"},
		{Seq: 1<<64 - 1, Op: OpDelete},
	}
}

// Marshal's frame body is json.Marshal(rec) byte for byte, and the
// header frames it.
func TestMarshalMatchesEncodingJSON(t *testing.T) {
	for _, rec := range encodeRecords() {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(frame[headerSize:]) != string(want) {
			t.Fatalf("record %d diverges from json.Marshal:\n got %s\nwant %s", rec.Seq, frame[headerSize:], want)
		}
		if n := binary.LittleEndian.Uint32(frame[0:4]); int(n) != len(want) {
			t.Fatalf("record %d: framed length %d, want %d", rec.Seq, n, len(want))
		}
		if got := binary.LittleEndian.Uint32(frame[8:12]); got != crc32.ChecksumIEEE(want) {
			t.Fatalf("record %d: payload checksum mismatch", rec.Seq)
		}
	}
	put := encodeRecords()[0]
	if n := testing.AllocsPerRun(10, func() { _, _ = Marshal(put) }); n != 1 {
		t.Fatalf("Marshal of a put record allocates %v times, want 1", n)
	}
	for _, bad := range []Record{
		{Seq: 1, Op: OpCharge, Epsilon: math.NaN()},
		{Seq: 1, Op: OpPut, StoredAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		if _, err := json.Marshal(bad); err == nil {
			t.Fatalf("json.Marshal accepted %+v", bad)
		}
		if _, err := Marshal(bad); err == nil {
			t.Fatalf("Marshal accepted %+v", bad)
		}
	}
}
