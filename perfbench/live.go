package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is the outcome of one request.
type opResult struct {
	class  string
	lat    time.Duration
	ord    int   // completion order in the timed phase, from 1
	failed error // transport error, non-200, or a 200 carrying valid:false / error
	wrong  error // a 200 whose content fails an output check
	// check, when set, is the output check deferred until after the
	// timed phase; its error becomes wrong.
	check func() error
}

// wl is one workload: how to set its daemon up and what its i-th
// timed request is.
type wl interface {
	// prepare generates the inputs (not timed).
	prepare(b *bench) error
	// history names the starting store to copy ("" = empty store).
	history() string
	// warmup sends the set-up requests that end setup_s. It returns the
	// checks of their answers, which run after setup_s is taken.
	warmup(ctx context.Context, b *bench, cs []*client, repeat int) ([]func() error, error)
	// op sends the i-th request of the timed sequence.
	op(ctx context.Context, c *client, i int) opResult
	// primary is the op class the latency metrics describe.
	primary() string
	// rate is the number of timed requests per second of --seconds: the
	// workload's throughput on the reference host (README.md), so a run
	// of S seconds sends a fixed S*rate requests and lasts about S
	// seconds there.
	rate() int
}

// timedOps is the length of the timed sequence: the same for every run
// of one workload and --seconds, a whole number of windows.
func timedOps(w wl, seconds int) int {
	n := seconds * w.rate()
	return n - n%windows
}

// bench holds one invocation's settings and working directories.
type bench struct {
	workload string
	seed     int64
	seconds  int
	daemon   string // dscweaverd binary
	cache    string // reusable fixtures (starting histories)
	dir      string // this run's working directory, removed at exit
	clients  int
}

// windows splits the timed sequence into equal runs of completions;
// each end-to-end rate and latency metric is the median over the
// windows, so a burst of load from outside the benchmark that spans
// fewer than half of them does not move it.
const windows = 5

// window is what one slice of the timed phase measured.
type window struct {
	secs     float64
	ops      int // completed without failure, all classes
	cpuTicks int64
	steal    int64     // machine-wide stolen ticks (/proc/stat), diagnostics only
	lat      []float64 // primary class, ms, sorted
}

// liveResult is what the live phase measured.
type liveResult struct {
	setups     []float64 // seconds, one per daemon launch
	results    []opResult
	elapsed    time.Duration
	windows    []window
	rssMB      float64
	primaryLat []float64 // ms, sorted, whole phase
}

// boundary is the daemon's state where a window ends.
type boundary struct {
	at           time.Duration // from the start of the timed phase
	ticks, steal int64
	err          error
}

// runLive launches the daemon the given number of times over a fresh
// copy of the starting history, times each launch through warm-up,
// and drives the timed closed loop on the last launch.
func runLive(ctx context.Context, b *bench, w wl, launches int) (*liveResult, error) {
	res := &liveResult{}
	var d *daemon
	var cs []*client
	for k := 0; k < launches; k++ {
		store := filepath.Join(b.dir, fmt.Sprintf("store-%d", k))
		if h := w.history(); h != "" {
			if err := copyDir(h, store); err != nil {
				return nil, fmt.Errorf("copy starting history: %w", err)
			}
		}
		var err error
		d, err = startDaemon(b.daemon, store, filepath.Join(b.dir, fmt.Sprintf("daemon-%d.log", k)))
		if err != nil {
			return nil, err
		}
		cs = make([]*client, b.clients)
		for i := range cs {
			cs[i] = newClient(d.base)
		}
		checks, err := w.warmup(ctx, b, cs, k)
		res.setups = append(res.setups, time.Since(d.started).Seconds())
		for _, check := range checks {
			if err == nil && check != nil {
				err = check()
			}
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if k == launches-1 {
			break
		}
		for _, c := range cs {
			c.close()
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(store); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
		d.stop()
	}()

	// Read the daemon's CPU time where each window ends: when the
	// completions reach a multiple of n/windows.
	n := timedOps(w, b.seconds)
	per := n / windows
	bounds := make([]boundary, windows+1)
	start := time.Now()
	mark := func(k int) {
		t, err := d.cpuTicks()
		bounds[k] = boundary{time.Since(start), t, stolenTicks(), err}
	}
	mark(0)
	res.results = drive(ctx, cs, n, w.op, func(done int) {
		if done%per == 0 {
			mark(done / per)
		}
	})
	res.elapsed = bounds[windows].at
	for _, bd := range bounds {
		if bd.err != nil {
			return nil, bd.err
		}
	}
	var err error
	if res.rssMB, err = d.peakRSS(); err != nil {
		return nil, err
	}
	res.windows = make([]window, windows)
	for k := range res.windows {
		res.windows[k].secs = (bounds[k+1].at - bounds[k].at).Seconds()
		res.windows[k].cpuTicks = bounds[k+1].ticks - bounds[k].ticks
		res.windows[k].steal = bounds[k+1].steal - bounds[k].steal
	}
	for _, r := range res.results {
		if r.failed != nil {
			continue
		}
		k := (r.ord - 1) / per
		res.windows[k].ops++
		if r.class == w.primary() {
			v := float64(r.lat) / 1e6
			res.windows[k].lat = append(res.windows[k].lat, v)
			res.primaryLat = append(res.primaryLat, v)
		}
	}
	for _, win := range res.windows {
		sort.Float64s(win.lat)
	}
	sort.Float64s(res.primaryLat)
	for i := range res.results {
		if r := &res.results[i]; r.check != nil {
			r.wrong, r.check = r.check(), nil
		}
	}
	return res, nil
}

// drive runs the closed loop over the first n requests of the one
// shared sequence: every client sends its next request only after the
// previous answer is in, taking the next index. done is called from the
// completing client with the number of requests completed so far.
func drive(ctx context.Context, cs []*client, n int, op func(context.Context, *client, int) opResult, done func(int)) []opResult {
	var next, completed atomic.Int64
	per := make([][]opResult, len(cs))
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				r := op(ctx, c, i)
				r.ord = int(completed.Add(1))
				done(r.ord)
				per[k] = append(per[k], r)
			}
		}(k, c)
	}
	wg.Wait()
	var all []opResult
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// fanOut sends n indexed set-up requests over the clients. It returns
// the checks f hands back, in index order, and the first error.
func fanOut(ctx context.Context, cs []*client, n int, f func(context.Context, *client, int) (func() error, error)) ([]func() error, error) {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	checks := make([]func() error, n)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				check, err := f(ctx, c, i)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				checks[i] = check
			}
		}(c)
	}
	wg.Wait()
	return checks, first
}

// postWeave sends one weave request with validation and BPEL on and
// returns the answer's body; the caller decodes and checks it.
func postWeave(ctx context.Context, c *client, p process) (opResult, []byte) {
	code, body, _, lat, err := c.do(ctx, http.MethodPost, "/v1/weave", weaveBody(p))
	r := opResult{class: "weave", lat: lat}
	switch {
	case err != nil:
		r.failed = err
	case code != http.StatusOK:
		r.failed = fmt.Errorf("weave: HTTP %d: %.200s", code, body)
	}
	return r, body
}

func decodeWeave(body []byte) (*weaveResponse, error) {
	var wr weaveResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, fmt.Errorf("weave: %w", err)
	}
	return &wr, nil
}

// weaveCold sends a distinct process with every request.
type weaveCold struct{ seed int64 }

func (w *weaveCold) prepare(b *bench) error { w.seed = b.seed; return nil }
func (w *weaveCold) history() string        { return "" }
func (w *weaveCold) primary() string        { return "weave" }
func (w *weaveCold) rate() int              { return 80 }

func (w *weaveCold) warmup(ctx context.Context, b *bench, cs []*client, repeat int) ([]func() error, error) {
	return fanOut(ctx, cs, coldWarmups, func(ctx context.Context, c *client, i int) (func() error, error) {
		p := genWeave(w.seed, streamWarm, i)
		r, body := postWeave(ctx, c, p)
		if r.failed != nil {
			return nil, r.failed
		}
		return func() error { return checkCold(p, body) }, nil
	})
}

// op defers the check of the answer until the timed phase is over:
// checking costs the client several milliseconds of CPU per weave,
// which would otherwise compete with the daemon for the same cores.
func (w *weaveCold) op(ctx context.Context, c *client, i int) opResult {
	r, body := postWeave(ctx, c, genWeave(w.seed, streamCold, i))
	if r.failed == nil {
		r.check = func() error { return checkCold(genWeave(w.seed, streamCold, i), body) }
	}
	return r
}

func checkCold(p process, body []byte) error {
	wr, err := decodeWeave(body)
	if err != nil {
		return err
	}
	if wr.VerdictCacheHit {
		return fmt.Errorf("weave-cold: verdict cache hit on a process never sent before")
	}
	return checkWeave(p, wr)
}

// weaveHot re-weaves a set smaller than the verdict cache; set-up
// weaves every member once, so each timed request replays a verdict.
type weaveHot struct {
	set []process
	// want holds each member's first answer. The first set-up records
	// it; later set-ups and every timed answer must equal it apart from
	// the fields sameAnswer ignores.
	want []*weaveResponse
}

func (w *weaveHot) prepare(b *bench) error {
	for i := 0; i < hotSetSize; i++ {
		w.set = append(w.set, genWeave(b.seed, streamHot, i))
	}
	w.want = make([]*weaveResponse, hotSetSize)
	return nil
}
func (w *weaveHot) history() string { return "" }
func (w *weaveHot) primary() string { return "weave" }
func (w *weaveHot) rate() int       { return 150 }

// sameAnswer compares two answers for one process, ignoring what
// differs from request to request: the run id and whether the verdict
// came from the cache.
func sameAnswer(a, b *weaveResponse) bool {
	x, y := *a, *b
	x.RunID, y.RunID = "", ""
	x.VerdictCacheHit, y.VerdictCacheHit = false, false
	return reflect.DeepEqual(x, y)
}

func (w *weaveHot) warmup(ctx context.Context, b *bench, cs []*client, repeat int) ([]func() error, error) {
	return fanOut(ctx, cs, len(w.set), func(ctx context.Context, c *client, i int) (func() error, error) {
		r, body := postWeave(ctx, c, w.set[i])
		if r.failed != nil {
			return nil, r.failed
		}
		return func() error {
			wr, err := decodeWeave(body)
			if err != nil {
				return err
			}
			if wr.VerdictCacheHit {
				return fmt.Errorf("weave-hot set-up: member %d already cached", i)
			}
			if repeat == 0 {
				if err := checkWeave(w.set[i], wr); err != nil {
					return err
				}
				w.want[i] = wr
			} else if !sameAnswer(wr, w.want[i]) {
				return fmt.Errorf("weave-hot set-up %d: member %d answered differently than in set-up 0", repeat, i)
			}
			return nil
		}, nil
	})
}

func (w *weaveHot) op(ctx context.Context, c *client, i int) opResult {
	k := i % len(w.set)
	r, body := postWeave(ctx, c, w.set[k])
	if r.failed != nil {
		return r
	}
	wr, err := decodeWeave(body)
	switch {
	case err != nil:
		r.wrong = err
	case !wr.VerdictCacheHit:
		r.wrong = fmt.Errorf("weave-hot: member %d missed the verdict cache", k)
	case !sameAnswer(wr, w.want[k]):
		r.wrong = fmt.Errorf("weave-hot: member %d answered differently than in set-up", k)
	}
	return r
}
