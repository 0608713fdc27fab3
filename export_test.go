package dphist

// LockShardsForTest write-locks every shard of s, as writers stalled
// mid-mutation would, and returns the function that releases them. It
// lets tests outside the package check that a read path never waits on
// the shards.
func LockShardsForTest(s *Store) (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}
}
