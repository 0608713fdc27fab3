// Command servebench runs one timed run of the serving benchmark
// against a dphist-server binary and prints its end-to-end metrics.
// run.sh builds both binaries from the checkout and invokes it:
//
//	bash servebench/run.sh --workload read-interactive --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/dphist/dphist/servebench/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(bench.Workloads, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: same seed, same dataset and request streams")
		seconds  = flag.Float64("seconds", 30, "length of the timed window")
		trace    = flag.Int("trace", 0, "must be 0; the traced run is the servetrace command")
		server   = flag.String("server", "", "dphist-server binary to launch")
		scratch  = flag.String("scratch", ".bench_build/run", "directory for data dirs (emptied, then removed)")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark declaration the output is checked against")
	)
	flag.Parse()
	if *trace != 0 {
		fatal(fmt.Errorf("-trace %d: run servetrace for the traced run", *trace))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	sp, err := bench.LoadSpec(*spec)
	if err != nil {
		fatal(err)
	}
	abs, err := filepath.Abs(*scratch)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		fatal(err)
	}
	fmt.Println(bench.Stamp(*server, abs))
	res, err := bench.Run(bench.Config{
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		ServerBin: *server,
		Scratch:   abs,
		Log:       os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	if len(res.Invalid) > 0 {
		fatal(fmt.Errorf("invalid measurement: %s", strings.Join(res.Invalid, "; ")))
	}
	gated, rest := bench.Declared(sp, false, res.Metrics)
	for name, m := range rest {
		fmt.Printf("%s %.6g %s is printed but not gated: BENCHMARK.json does not declare it (see servebench/README.md)\n", name, m.Value, m.Unit)
	}
	if err := bench.CheckOutput(sp, *workload, false, gated); err != nil {
		fatal(fmt.Errorf("output self-check: %w", err))
	}
	out := bench.Output{Correct: res.Mismatched == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: gated}
	if err := bench.PrintOutput(os.Stdout, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
	os.Exit(1)
}
