package dphist_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/server"
)

// An absent namespace's budget is answered from the accountant map
// alone, so the probe gets through while every shard is write-locked.
// A probe that scanned the store for the name would wait out the
// writers, and each unauthenticated probe would cost a full scan.
func TestAbsentNamespaceBudgetSkipsShards(t *testing.T) {
	store := dphist.NewStore(dphist.WithShards(4), dphist.WithBudget(2))
	srv, err := server.New(server.Config{Counts: []float64{1, 2, 3, 4}, Store: store, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	unlock := dphist.LockShardsForTest(store)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/ns/ghost/budget")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		unlock()
		<-done // the blocked probe finishes once the writers leave
		t.Fatal("absent-namespace budget probe blocked behind shard write locks")
	}
}
