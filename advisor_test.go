package dphist

import (
	"encoding/json"
	"sort"
	"testing"
)

// TestRecommendationShapeIsFlat pins the advisor's public shape: the
// winner's fields are scalars and Alternatives is a flat ranked list of
// leaf predictions — an alternative never nests its own alternatives,
// so serializing a Recommendation cannot recurse.
func TestRecommendationShapeIsFlat(t *testing.T) {
	w, err := NewWorkload(32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := w.Add(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Add(0, 32, 3); err != nil {
		t.Fatal(err)
	}
	rec, err := w.Recommend(1.0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Alternatives) < 6 {
		t.Fatalf("only %d alternatives for two branchings", len(rec.Alternatives))
	}
	if rec.Alternatives[0].Strategy != rec.Strategy ||
		rec.Alternatives[0].PredictedError != rec.PredictedError {
		t.Fatalf("winner %q (%v) is not first alternative %+v",
			rec.Strategy, rec.PredictedError, rec.Alternatives[0])
	}
	if !sort.SliceIsSorted(rec.Alternatives, func(i, j int) bool {
		return rec.Alternatives[i].PredictedError < rec.Alternatives[j].PredictedError
	}) {
		t.Fatalf("alternatives not ranked ascending: %+v", rec.Alternatives)
	}
	// Shape check through the wire form: each alternative is a leaf
	// object with no nested alternatives array.
	data, err := json.Marshal(rec.Alternatives)
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for i, alt := range raw {
		if _, nested := alt["alternatives"]; nested {
			t.Fatalf("alternative %d nests alternatives: %s", i, data)
		}
		if _, ok := alt["strategy"]; !ok {
			t.Fatalf("alternative %d missing strategy: %s", i, data)
		}
	}
	for _, alt := range rec.Alternatives {
		if alt.Confidence != "exact" && alt.Confidence != "bound" {
			t.Fatalf("alternative confidence %q", alt.Confidence)
		}
	}
}
