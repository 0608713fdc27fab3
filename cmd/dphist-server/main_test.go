package main

import (
	"math"
	"testing"
)

// storeOptions refuses the store flags WithShards, WithBudget and
// WithSnapshotEvery would panic on or silently ignore, so main can exit
// 2 with a one-line message instead.
func TestStoreOptions(t *testing.T) {
	for _, tc := range []struct {
		budget            float64
		shards, snapEvery int
		ok                bool
	}{
		{1, 0, 0, true},
		{1, 1, 0, true},
		{1, 4096, 0, true},
		{1, 8, 16, true},
		{1, -1, 0, false},
		{1, 4097, 0, false},
		{1, 0, -1, false},
		{0, 0, 0, false},
		{math.Inf(1), 0, 0, false},
	} {
		_, err := storeOptions(tc.budget, tc.shards, tc.snapEvery)
		if (err == nil) != tc.ok {
			t.Errorf("storeOptions(%v, %d, %d) error = %v, want ok=%v", tc.budget, tc.shards, tc.snapEvery, err, tc.ok)
		}
	}
}
