package dphist

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeRelease throws arbitrary payloads at the wire decoder that
// the journal, the snapshot loader, and every HTTP client run on
// untrusted bytes. The invariants:
//
//   - DecodeRelease never panics: it either returns a valid Release or
//     an error, whatever the input.
//   - Decode/encode is a fixed point: any payload that decodes must
//     re-encode and decode again to a release with the same strategy,
//     epsilon, domain, and query answers — recovery through the journal
//     must not drift state.
//   - The append encoder is the reflection encoder: any payload that
//     decodes re-encodes through AppendRelease to exactly the bytes
//     json.Marshal writes for the release's *Wire struct.
func FuzzDecodeRelease(f *testing.F) {
	m := MustNew(WithSeed(3))
	counts := []float64{2, 0, 10, 2, 5, 5, 5, 5}
	for _, strategy := range Strategies() {
		req := Request{Strategy: strategy, Counts: counts, Epsilon: 0.5}
		switch strategy {
		case StrategyHierarchy:
			req.Hierarchy = Grades()
			req.Counts = make([]float64, len(Grades().Leaves()))
			for i := range req.Counts {
				req.Counts[i] = float64(i)
			}
		case StrategyUniversal2D:
			req.Counts = nil
			req.Cells = [][]float64{{2, 0, 10}, {2, 5}}
		}
		rel, err := m.Release(req)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(rel)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":2,"strategy":"universal"}`))
	f.Add([]byte(`{"version":1,"strategy":"laplace","epsilon":1}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := DecodeRelease(data)
		if err != nil {
			return
		}
		if rel == nil {
			t.Fatal("nil release without error")
		}
		re, err := json.Marshal(rel)
		if err != nil {
			t.Fatalf("decoded release does not re-encode: %v", err)
		}
		oracle, err := json.Marshal(wireOracle(t, rel))
		if err != nil {
			t.Fatalf("reflection oracle: %v", err)
		}
		appended, err := AppendRelease(nil, rel)
		if err != nil {
			t.Fatalf("AppendRelease: %v", err)
		}
		if !bytes.Equal(appended, oracle) {
			t.Fatalf("AppendRelease diverges from the reflection oracle:\n got %s\nwant %s", appended, oracle)
		}
		rel2, err := DecodeRelease(re)
		if err != nil {
			t.Fatalf("re-encoded release does not decode: %v", err)
		}
		if rel.Strategy() != rel2.Strategy() || rel.Epsilon() != rel2.Epsilon() {
			t.Fatalf("round trip drifted: %v/%v -> %v/%v",
				rel.Strategy(), rel.Epsilon(), rel2.Strategy(), rel2.Epsilon())
		}
		n := releaseDomain(rel)
		if n != releaseDomain(rel2) {
			t.Fatalf("round trip changed domain: %d -> %d", n, releaseDomain(rel2))
		}
		if n > 0 {
			a1, err1 := QueryBatch(rel, []RangeSpec{{Lo: 0, Hi: n}})
			a2, err2 := QueryBatch(rel2, []RangeSpec{{Lo: 0, Hi: n}})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("round trip changed queryability: %v vs %v", err1, err2)
			}
			if err1 == nil && !sameFloatBits(a1, a2) {
				t.Fatalf("round trip changed answers: %v -> %v", a1, a2)
			}
		}
		re2, err := json.Marshal(rel2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("encode is not a fixed point after one round trip")
		}
	})
}

// sameFloatBits compares float slices bit-for-bit (NaN == NaN), since
// fuzzed payloads may legally carry NaN counts through the round trip.
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}
