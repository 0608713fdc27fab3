package dphist

// FuzzDecodedPlanEquivalence throws arbitrary payloads at the decoder
// and, whenever one decodes, holds the recompiled query plan to the
// batch engine's contract: QueryBatch must answer exactly what
// per-query Range answers (and QueryRects what Rect answers) with no
// panic, for whatever shape the payload produced. This is the plan the
// store snapshots and answers every batch from, so any divergence here
// is a served wrong answer.

import (
	"encoding/json"
	"testing"
)

func FuzzDecodedPlanEquivalence(f *testing.F) {
	m := MustNew(WithSeed(7))
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
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := DecodeRelease(data)
		if err != nil {
			return // malformed payloads are the decoder tests' problem
		}
		n := len(rel.Counts())
		specs := []RangeSpec{{Lo: 0, Hi: n}, {Lo: 0, Hi: 0}, {Lo: n, Hi: n}}
		if n >= 2 {
			specs = append(specs, RangeSpec{Lo: 1, Hi: n - 1}, RangeSpec{Lo: n / 2, Hi: n})
		}
		answers, err := QueryBatch(rel, specs)
		if err != nil {
			t.Fatalf("decoded release refused valid specs: %v", err)
		}
		for i, q := range specs {
			want, err := rel.Range(q.Lo, q.Hi)
			if err != nil {
				t.Fatalf("Range(%d,%d): %v", q.Lo, q.Hi, err)
			}
			if answers[i] != want {
				t.Fatalf("decoded plan: batch [%d,%d) = %v, Range = %v", q.Lo, q.Hi, answers[i], want)
			}
		}
		rq, ok := rel.(RectQuerier)
		if !ok {
			return
		}
		w, h := rq.Width(), rq.Height()
		rects := []RectSpec{{X1: w, Y1: h}, {}, {X0: w / 2, Y0: h / 2, X1: w, Y1: h}}
		got, err := QueryRects(rel, rects)
		if err != nil {
			t.Fatalf("decoded release refused valid rects: %v", err)
		}
		for i, q := range rects {
			want, err := rq.Rect(q.X0, q.Y0, q.X1, q.Y1)
			if err != nil {
				t.Fatalf("Rect%+v: %v", q, err)
			}
			if got[i] != want {
				t.Fatalf("decoded plan: batch rect %+v = %v, Rect = %v", q, got[i], want)
			}
		}
	})
}
