// Command servetrace is the serving benchmark's traced run. It first
// runs the untraced timed run for half the window (the generator and
// answer-cache figures come from it), then replays the same seeded
// stream in-process for the other half, timing the calls into each
// layer, and prints the per-layer metrics BENCHMARK.json declares.
// run.sh builds it when asked for --trace 1:
//
//	bash servebench/run.sh --workload write-mixed --seed 1 --seconds 30 --trace 1
//
// Spans are written to .bench_build/trace/<workload>-<seed>.jsonl.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/dphist/dphist/servebench/bench"
	"github.com/dphist/dphist/servebench/trace"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(bench.Workloads, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: same seed, same dataset and request streams")
		seconds  = flag.Float64("seconds", 30, "length of the run, split between the timed run and the traced replay")
		traced   = flag.Int("trace", 1, "must be 1; the untraced run is the servebench command")
		server   = flag.String("server", "", "dphist-server binary for the untraced run")
		scratch  = flag.String("scratch", ".bench_build/run", "directory for data dirs (emptied, then removed)")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark declaration the output is checked against")
	)
	flag.Parse()
	if *traced != 1 {
		fatal(fmt.Errorf("-trace %d: run servebench for the untraced run", *traced))
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
	fmt.Println("untraced timed run:")
	live, err := bench.Run(bench.Config{Workload: *workload, Seed: *seed, Seconds: *seconds / 2,
		ServerBin: *server, Scratch: filepath.Join(abs, "live"), Log: os.Stdout})
	if err != nil {
		fatal(err)
	}
	spans := filepath.Join(filepath.Dir(abs), "trace", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
	res, err := trace.Run(trace.Config{Workload: *workload, Seed: *seed, Seconds: *seconds / 2,
		Scratch: filepath.Join(abs, "trace"), SpanFile: spans})
	if err != nil {
		fatal(err)
	}
	m := res.Metrics
	m["qcache.hit_ratio"] = bench.Metric{Value: live.HitRatio, Unit: "ratio"}
	m["gen.lateness_p50_us"] = bench.Metric{Value: live.Gen.LatenessP50, Unit: "us"}
	m["gen.lateness_p99_us"] = bench.Metric{Value: live.Gen.LatenessP99, Unit: "us"}
	m["gen.conn_wait_p99_us"] = bench.Metric{Value: live.Gen.ConnWaitP99, Unit: "us"}
	m["gen.backlog_max"] = bench.Metric{Value: float64(live.Gen.BacklogMax), Unit: "count"}
	fmt.Println("traced in-process replay:")
	for _, l := range trace.Layers {
		if v, ok := m[l.Name]; ok {
			fmt.Printf("%-34s %14.6g %s\n", l.Name, v.Value, v.Unit)
		}
	}
	fmt.Printf("replay query latency: untraced p50=%.4fms p%.4g=%.4fms (n=%d); traced p50=%.4fms p%.4g=%.4fms (n=%d)\n",
		res.Untraced.P50, res.Untraced.TailPct, res.Untraced.Tail, res.Untraced.N,
		res.Traced.P50, res.Traced.TailPct, res.Traced.Tail, res.Traced.N)
	fmt.Printf("tracing overhead (traced - untraced replay): p50 %+.4fms, tail %+.4fms\n",
		res.Traced.P50-res.Untraced.P50, res.Traced.Tail-res.Untraced.Tail)
	fmt.Printf("timed run for comparison: query_p50_ms=%.4f query_p99_ms=%.4f\n",
		live.Metrics["query_p50_ms"].Value, live.Metrics["query_p99_ms"].Value)
	if len(live.Invalid) > 0 {
		fatal(fmt.Errorf("invalid measurement: %s", strings.Join(live.Invalid, "; ")))
	}
	if err := bench.CheckOutput(sp, *workload, true, m); err != nil {
		fatal(fmt.Errorf("output self-check: %w", err))
	}
	out := bench.Output{
		Correct:   live.Mismatched == 0,
		Attempted: live.Attempted + res.Attempted,
		Failed:    live.Failed + res.Failed,
		Metrics:   m,
	}
	if err := bench.PrintOutput(os.Stdout, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "servetrace: %v\n", err)
	os.Exit(1)
}
