// Command perfbench is dscweaver's benchmark. It starts the real
// dscweaverd binary with a run store, drives it from one closed-loop
// load generator, checks every answer, and prints one JSON result line:
//
//	perfbench -daemon BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: weave-cold, weave-hot, enact-history (see README.md).
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same live run is followed by an in-process traced
// replay of the workload's inputs, and the result carries the
// per-layer metrics. run.sh builds both binaries and supplies -daemon
// and -work.
//
// perfbench -guard-fault N lists which of the first N enact-shape
// generator seeds trip the known core.DeriveGuards fault.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "weave-cold | weave-hot | enact-history")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 0, "timed phase length in seconds (BENCHMARK.json run_seconds; required)")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process run")
	daemonBin := flag.String("daemon", "", "dscweaverd binary")
	work := flag.String("work", "", "working directory for stores, logs, fixtures and spans")
	guardFault := flag.Int("guard-fault", 0, "list the enact-shape generator seeds in [0, N) that trip the DeriveGuards fault, then exit")
	flag.Parse()
	if *guardFault > 0 {
		if err := listGuardFault(*guardFault); err != nil {
			fatal(err)
		}
		return
	}
	if *daemonBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var w wl
	switch *workloadName {
	case "weave-cold":
		w = &weaveCold{}
	case "weave-hot":
		w = &weaveHot{}
	case "enact-history":
		w = &enactHistory{}
	default:
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	b := &bench{
		workload: *workloadName,
		seed:     *seed,
		seconds:  *seconds,
		daemon:   *daemonBin,
		cache:    filepath.Join(*work, "fixtures"),
		clients:  min(runtime.NumCPU(), 2),
	}
	if err := os.MkdirAll(b.cache, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, b.workload+"-")
	if err != nil {
		fatal(err)
	}
	b.dir = dir
	res, err := run(b, w, *trace == 1, filepath.Join(*work, "spans"))
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func run(b *bench, w wl, traced bool, spanDir string) (*result, error) {
	ctx := context.Background()
	if err := w.prepare(b); err != nil {
		return nil, err
	}
	// A traced run reports no setup_s, so one launch serves it.
	launches := setupRepeats
	if traced {
		launches = 1
	}
	live, err := runLive(ctx, b, w, launches)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: len(live.results), Metrics: map[string]metric{}}
	classes := map[string][]float64{}
	for _, r := range live.results {
		switch {
		case r.failed != nil:
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed %s: %v\n", r.class, r.failed)
		case r.wrong != nil:
			if res.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: WRONG %s: %v\n", r.class, r.wrong)
			}
			res.Correct = false
		}
		classes[r.class] = append(classes[r.class], float64(r.lat)/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.2fs, %d failed, set-ups %.3f s\n",
		b.workload, b.seed, len(live.results), live.elapsed.Seconds(), res.Failed, live.setups)
	for _, c := range sortedKeys(classes) {
		v := classes[c]
		sort.Float64s(v)
		fmt.Fprintf(os.Stderr, "perfbench:   %-7s n=%-6d p50=%.3fms p90=%.3fms\n", c, len(v), quantile(v, 0.5), quantile(v, 0.9))
	}
	if len(live.primaryLat) < 100 {
		return nil, fmt.Errorf("only %d %s samples of %d requests (need 100)", len(live.primaryLat), w.primary(), len(live.results))
	}
	p50 := quantile(live.primaryLat, 0.5)
	if !traced {
		var rate, cpu, p50s, p90s []float64
		var stolen int64
		for k, win := range live.windows {
			stolen += win.steal
			fmt.Fprintf(os.Stderr, "perfbench:   window %d: %.2fs %d ops %.1f/s p50 %.3fms steal %.0f%%\n", k, win.secs, win.ops,
				float64(win.ops)/win.secs, quantile(win.lat, 0.5), 100*float64(win.steal)*clockTick.Seconds()/(win.secs*float64(runtime.NumCPU())))
			rate = append(rate, float64(win.ops)/win.secs)
			cpu = append(cpu, float64(win.cpuTicks)*float64(clockTick/time.Millisecond)/float64(max(win.ops, 1)))
			p50s = append(p50s, quantile(win.lat, 0.5))
			p90s = append(p90s, quantile(win.lat, 0.9))
		}
		// steady.py reads this line to flag runs the host disturbed.
		fmt.Fprintf(os.Stderr, "perfbench: steal %.1f%% of the machine's CPU time over the timed phase\n",
			100*float64(stolen)*clockTick.Seconds()/(live.elapsed.Seconds()*float64(runtime.NumCPU())))
		res.Metrics["setup_s"] = metric{median(live.setups), "s"}
		res.Metrics["ops_per_s"] = metric{median(rate), "1/s"}
		res.Metrics["p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["p90_ms"] = metric{median(p90s), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{median(cpu), "ms"}
		res.Metrics["rss_mb"] = metric{live.rssMB, "MiB"}
		return res, nil
	}
	tr, err := runTrace(ctx, b, w, p50, spanDir)
	if err != nil {
		return nil, err
	}
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	res.Correct = res.Correct && tr.correct
	res.Metrics = tr.metrics
	return res, nil
}

// quantile interpolates linearly between the closest ranks of sorted v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
