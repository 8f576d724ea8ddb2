package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/enact"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/server"
	"dscweaver/internal/services"
	"dscweaver/internal/store"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
)

// The traced run replays a workload's seeded inputs in-process, on
// one goroutine, timing calls into the program's public functions from
// here: weave.Run (its stage hook and stage ledger, with allocation
// counts read at the hook boundaries), the decentral/enact/schedule
// entry points, the store API on a copy of the starting history, and
// server.Handler() serving into a recorder with no socket. Nothing is
// traced inside the program.

// layerUnits lists every per-layer metric with its unit, in report
// order. A layer the workload's path does not run reads 0.
var layerUnits = [][2]string{
	{"dscl.parse_ms", "ms"}, {"dscl.parse_allocs", "count"},
	{"core.merge_ms", "ms"}, {"core.desugar_ms", "ms"}, {"core.translate_ms", "ms"},
	{"core.minimize_ms", "ms"}, {"core.minimize_allocs", "count"},
	{"core.equivalence_checks", "count"}, {"core.pair_comparisons", "count"},
	{"core.closure_cache_hit_ratio", "ratio"}, {"core.removed_per_check", "ratio"},
	{"core.verdict_cache_hit_ratio", "ratio"},
	{"petri.validate_ms", "ms"}, {"petri.validate_allocs", "count"},
	{"petri.states_explored", "count"}, {"petri.fastpath_ratio", "ratio"},
	{"bpel.generate_ms", "ms"}, {"bpel.xml_kb", "KiB"},
	{"weave.run_ms", "ms"}, {"weave.self_ms", "ms"}, {"weave.allocs", "count"}, {"weave.alloc_kb", "KiB"},
	{"server.request_ms", "ms"}, {"server.self_ms", "ms"}, {"server.response_kb", "KiB"},
	{"obs.events_per_op", "count"},
	{"store.open_ms", "ms"}, {"store.append_us", "us"}, {"store.bytes_per_op", "B"},
	{"store.events_read_ms", "ms"}, {"store.read_amplification", "ratio"}, {"store.list_us", "us"},
	{"decentral.place_ms", "ms"}, {"decentral.cross_edges", "count"},
	{"enact.run_ms", "ms"}, {"enact.edge_messages", "count"}, {"enact.outcome_messages", "count"},
	{"schedule.self_ms", "ms"}, {"schedule.activities_per_run", "count"},
	{"services.invocations", "count"},
	{"trace.op_total_ms", "ms"}, {"trace.unattributed_ms", "ms"},
}

// span is one timed call. Spans of one request share op; parent is the
// enclosing span's id (-1 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends, plus the sums the
// per-layer metrics are computed from.
type tracer struct {
	t0    time.Time
	spans []span
	sum   map[string]float64
	n     map[string]int
	// requests holds every server.request duration in ms.
	requests []float64
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{id, parent, op, name, t.at(start), t.at(end)})
	return id
}

// observe adds one sample of a per-op quantity; the metric reports the
// mean over the samples.
func (t *tracer) observe(name string, v float64) {
	t.sum[name] += v
	t.n[name]++
}

// total adds to a numerator or denominator of a ratio metric.
func (t *tracer) total(name string, v float64) { t.sum[name] += v }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memCounts reads the cumulative heap allocation count and bytes.
// ReadMemStats stops the world, which flushes every P's counts, so the
// differences between two reads are exact.
func memCounts() (uint64, uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// tracedWeave runs weave.Run under the stage hook. It returns the
// result, the events the run emitted, and the time the hook itself
// spent reading allocation counts (excluded from weave.run_ms).
func (t *tracer) tracedWeave(ctx context.Context, parent, op int, src string, opts weave.Options) (*weave.Result, *obs.MemSink, error) {
	sink := &obs.MemSink{}
	opts.Events = sink
	type mark struct {
		stage        string
		at           time.Time
		mallocs, buf uint64
	}
	var marks []mark
	var overhead time.Duration
	opts.StageHook = func(ctx context.Context, stage string) error {
		began := time.Now()
		m, b := memCounts()
		marks = append(marks, mark{stage, time.Now(), m, b})
		overhead += time.Since(began)
		return nil
	}
	m0, b0 := memCounts()
	began := time.Now()
	res, err := weave.Run(ctx, weave.Input{Source: src}, opts)
	ended := time.Now()
	m1, b1 := memCounts()
	if err != nil {
		return nil, nil, err
	}
	run := ended.Sub(began) - overhead
	root := t.add(parent, op, "weave.run", began, ended)
	var staged time.Duration
	for i, mk := range marks {
		end, em := ended, m1
		if i+1 < len(marks) {
			end, em = marks[i+1].at, marks[i+1].mallocs
		}
		t.add(root, op, "weave."+mk.stage, mk.at, end)
		d := res.StageDuration(mk.stage)
		staged += d
		allocs := float64(em - mk.mallocs)
		switch mk.stage {
		case weave.StageParse:
			t.observe("dscl.parse_ms", ms(d))
			t.observe("dscl.parse_allocs", allocs)
		case weave.StageMerge:
			t.observe("core.merge_ms", ms(d))
		case weave.StageDesugar:
			t.observe("core.desugar_ms", ms(d))
		case weave.StageTranslate:
			t.observe("core.translate_ms", ms(d))
		case weave.StageMinimize:
			t.observe("core.minimize_ms", ms(d))
			t.observe("core.minimize_allocs", allocs)
		case weave.StageValidate:
			t.observe("petri.validate_ms", ms(d))
			t.observe("petri.validate_allocs", allocs)
		case weave.StageBPEL:
			t.observe("bpel.generate_ms", ms(d))
		}
	}
	t.observe("weave.run_ms", ms(run))
	t.observe("weave.self_ms", ms(run-staged))
	t.observe("weave.allocs", float64(m1-m0))
	t.observe("weave.alloc_kb", float64(b1-b0)/1024)

	mr := res.Minimize
	t.observe("core.equivalence_checks", float64(mr.EquivalenceChecks))
	t.observe("core.pair_comparisons", float64(mr.PairComparisons))
	t.total("closure.hits", float64(mr.ClosureCacheHits))
	t.total("closure.lookups", float64(mr.ClosureCacheHits+mr.ClosureCacheMisses))
	t.total("removed", float64(len(mr.Removed)))
	t.total("checks", float64(mr.EquivalenceChecks))
	t.total("weaves", 1)
	if mr.VerdictCacheHit {
		t.total("verdict.hits", 1)
	}
	if rep := res.Soundness; rep != nil {
		t.observe("petri.states_explored", float64(rep.StateSpace.States))
		t.total("validations", 1)
		if rep.Method == "fastpath" {
			t.total("fastpath", 1)
		}
	}
	if res.BPELXML != nil {
		t.observe("bpel.xml_kb", float64(len(res.BPELXML))/1024)
	}
	return res, sink, nil
}

// appendRun writes one run's records through the store API, as the
// daemon's run appender does, and reports the time and bytes taken.
func (t *tracer) appendRun(parent, op int, st *store.Store, dir string, seq int64, kind, proc string, events []obs.Event) {
	before := dirBytes(dir)
	id := fmt.Sprintf("trace-%s-%06d", kind, seq)
	began := time.Now()
	app := st.Begin(id, seq, kind, began)
	for _, e := range events {
		app.Emit(e)
	}
	app.Finish(proc, nil)
	ended := time.Now()
	t.add(parent, op, "store.append", began, ended)
	t.observe("store.append_us", float64(ended.Sub(began))/1e3)
	t.observe("store.bytes_per_op", float64(dirBytes(dir)-before))
}

// dirBytes sums the sizes of a store's segment files.
func dirBytes(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	var n int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// serve sends one request through server.Handler() into a recorder.
// The handler's own time excludes the window between the run's first
// and last event, which the weave/enact layers account for.
func (t *tracer) serve(parent, op int, h http.Handler, path string, body any) (*httptest.ResponseRecorder, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	began := time.Now()
	h.ServeHTTP(rec, req)
	ended := time.Now()
	t.add(parent, op, "server.request", began, ended)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s: HTTP %d: %.200s", path, rec.Code, rec.Body.String())
	}
	var id struct {
		RunID string `json:"run_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &id); err != nil {
		return rec, err
	}
	inner, err := runWindow(h, id.RunID)
	if err != nil {
		return rec, err
	}
	t.observe("server.request_ms", ms(ended.Sub(began)))
	t.requests = append(t.requests, ms(ended.Sub(began)))
	t.observe("server.self_ms", ms(ended.Sub(began)-inner))
	t.observe("server.response_kb", float64(rec.Body.Len())/1024)
	return rec, nil
}

// runWindow reads a run's event log through the handler and returns
// the span from its first to its last event (monotonic stamps).
func runWindow(h http.Handler, id string) (time.Duration, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/events", nil))
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("events %s: HTTP %d", id, rec.Code)
	}
	var first, last int64
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Mono int64 `json:"mono_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, err
		}
		if first == 0 {
			first = ev.Mono
		}
		last = ev.Mono
	}
	return time.Duration(last - first), sc.Err()
}

// traceResult is the traced run's outcome.
type traceResult struct {
	attempted, failed int
	correct           bool
	metrics           map[string]metric
}

// traceEnv is the in-process program the traced run calls into.
type traceEnv struct {
	t        *tracer
	opts     weave.Options // options the daemon would use
	cache    *core.VerdictCache
	srv      *server.Server
	st       *store.Store
	stDir    string
	seq      int64
	failures int
	wrong    error
}

func (e *traceEnv) fail(err error) {
	e.failures++
	fmt.Fprintf(os.Stderr, "perfbench: traced op failed: %v\n", err)
}

func (e *traceEnv) mistake(err error) {
	if e.wrong == nil {
		e.wrong = err
		fmt.Fprintf(os.Stderr, "perfbench: traced op WRONG: %v\n", err)
	}
}

// traceShare: the traced run replays the first 1/traceShare of the live
// run's timed sequence. On one goroutine, with every weave run twice
// (pipeline and handler), that takes about as long as the live phase.
const traceShare = 4

// runTrace replays a prefix of the workload's timed sequence in-process
// and returns the per-layer metrics. p50 is the live run's primary-class
// median, reported beside the traced per-op total.
func runTrace(ctx context.Context, b *bench, w wl, p50 float64, spanDir string) (*traceResult, error) {
	fe, err := front.ByLang("dscl")
	if err != nil {
		return nil, err
	}
	t := &tracer{t0: time.Now(), sum: map[string]float64{}, n: map[string]int{}}
	e := &traceEnv{t: t, cache: core.NewVerdictCache(0)}
	e.opts = weave.Options{Frontend: fe, VerdictCache: e.cache, Metrics: obs.NewRegistry()}

	// Two copies of the starting history: one behind the store API,
	// one behind the in-process server.
	e.stDir = filepath.Join(b.dir, "trace-store")
	srvDir := filepath.Join(b.dir, "trace-server-store")
	for k := 0; k < 3; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("trace-open-%d", k))
		if err := copyHistory(w, dir); err != nil {
			return nil, err
		}
		began := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("store.Open: %w", err)
		}
		t.observe("store.open_ms", ms(time.Since(began)))
		st.Close()
	}
	for _, dir := range []string{e.stDir, srvDir} {
		if err := copyHistory(w, dir); err != nil {
			return nil, err
		}
	}
	if e.st, err = store.Open(e.stDir, store.Options{}); err != nil {
		return nil, err
	}
	defer e.st.Close()
	e.seq = e.st.MaxSeq()
	if e.srv, err = server.New(server.Config{StoreDir: srvDir}); err != nil {
		return nil, err
	}
	defer e.srv.Shutdown()

	var op func(i int)
	switch w := w.(type) {
	case *weaveCold:
		op = func(i int) { e.weaveOp(ctx, i, genWeave(w.seed, streamCold, i), true) }
	case *weaveHot:
		for _, p := range w.set {
			if err := e.warm(ctx, p.source, weaveBody(p), "/v1/weave", true); err != nil {
				return nil, err
			}
		}
		op = func(i int) { e.weaveOp(ctx, i, w.set[i%len(w.set)], false) }
	case *enactHistory:
		for _, p := range w.pool {
			if err := e.warm(ctx, p.source, enactBody(p), "/v1/enact", false); err != nil {
				return nil, err
			}
		}
		lay, err := segmentLayout(e.stDir)
		if err != nil {
			return nil, err
		}
		op = func(i int) { e.historyOp(ctx, w, lay, i) }
	default:
		return nil, fmt.Errorf("no traced run for %T", w)
	}

	attempted := timedOps(w, b.seconds) / traceShare
	for i := 0; i < attempted; i++ {
		op(i)
	}
	// Only the primary class goes through the handler, so the handler
	// times are the traced per-op totals of that class.
	sort.Float64s(t.requests)
	total := quantile(t.requests, 0.5)

	res := &traceResult{attempted: attempted, failed: e.failures, correct: e.wrong == nil, metrics: map[string]metric{}}
	ratio := func(num, den string) float64 {
		if t.sum[den] == 0 {
			return 0
		}
		return t.sum[num] / t.sum[den]
	}
	derived := map[string]float64{
		"core.closure_cache_hit_ratio": ratio("closure.hits", "closure.lookups"),
		"core.removed_per_check":       ratio("removed", "checks"),
		"core.verdict_cache_hit_ratio": ratio("verdict.hits", "weaves"),
		"petri.fastpath_ratio":         ratio("fastpath", "validations"),
		"store.read_amplification":     ratio("read.scanned", "read.own"),
		"trace.op_total_ms":            total,
		"trace.unattributed_ms":        p50 - total,
	}
	for _, lu := range layerUnits {
		v, ok := derived[lu[0]]
		if !ok && t.n[lu[0]] > 0 {
			v = t.sum[lu[0]] / float64(t.n[lu[0]])
		}
		res.metrics[lu[0]] = metric{v, lu[1]}
	}
	if err := writeSpans(spanDir, b, t.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced %d ops; %s per-op total p50 %.3fms (server.request) vs end-to-end p50 %.3fms: %.3fms unattributed (HTTP, queueing)\n",
		attempted, w.primary(), total, p50, p50-total)
	return res, nil
}

func copyHistory(w wl, dir string) error {
	if h := w.history(); h != "" {
		return copyDir(h, dir)
	}
	return os.MkdirAll(dir, 0o755)
}

// warm runs one input through both in-process paths untraced, filling
// the traced run's verdict cache and the server's, as the live set-up
// does for the daemon.
func (e *traceEnv) warm(ctx context.Context, src string, body map[string]any, path string, outputs bool) error {
	opts := e.opts
	opts.Validate, opts.BPEL = outputs, outputs
	if _, err := weave.Run(ctx, weave.Input{Source: src}, opts); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	e.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced set-up %s: HTTP %d", path, rec.Code)
	}
	return nil
}

// weaveOp is one traced weave: the pipeline with validation and BPEL,
// its records through the store API, then the same request through
// the server handler, whose answer is checked.
func (e *traceEnv) weaveOp(ctx context.Context, i int, p process, cold bool) {
	t := e.t
	began := time.Now()
	root := len(t.spans)
	t.spans = append(t.spans, span{ID: root, Parent: -1, Op: i, Name: "op.weave"})
	opts := e.opts
	opts.Validate, opts.BPEL = true, true
	res, sink, err := t.tracedWeave(ctx, root, i, p.source, opts)
	if err != nil {
		e.fail(err)
	} else {
		e.seq++
		t.observe("obs.events_per_op", float64(sink.Len()))
		t.appendRun(root, i, e.st, e.stDir, e.seq, "weave", res.Parsed.Proc.Name, sink.Events())
	}
	rec, err := t.serve(root, i, e.srv.Handler(), "/v1/weave", weaveBody(p))
	if err != nil {
		e.fail(err)
	} else {
		var wr weaveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil {
			e.mistake(err)
		} else if wr.VerdictCacheHit == cold {
			e.mistake(fmt.Errorf("traced weave: verdict_cache_hit=%v, want %v", wr.VerdictCacheHit, !cold))
		} else if err := checkWeave(p, &wr); err != nil {
			e.mistake(err)
		}
	}
	t.spans[root].Start, t.spans[root].End = t.at(began), t.at(time.Now())
}

// historyOp is the i-th op of the enact-history mix, traced: an
// enactment, a store listing, or a store replay of a stored run.
func (e *traceEnv) historyOp(ctx context.Context, w *enactHistory, lay map[string]runLayout, i int) {
	t := e.t
	x := derive(w.seed, streamMix, i)
	pick := int((x >> 16) % (1 << 30))
	switch cls := x % (mixEnact + mixRuns + mixEvents); {
	case cls < mixEnact:
		e.enactOp(ctx, i, w.pool[int(x>>8)%len(w.pool)])
	case cls < mixEnact+mixRuns:
		began := time.Now()
		runs := e.st.List(listLimit)
		ended := time.Now()
		t.add(-1, i, "store.list", began, ended)
		t.observe("store.list_us", float64(ended.Sub(began))/1e3)
		if len(runs) != listLimit {
			e.mistake(fmt.Errorf("store.List(%d) gave %d runs", listLimit, len(runs)))
		}
	default:
		s := w.stored[pick%len(w.stored)]
		began := time.Now()
		evs, err := e.st.Events(s.ID)
		ended := time.Now()
		t.add(-1, i, "store.events", began, ended)
		if err != nil {
			e.fail(err)
			return
		}
		t.observe("store.events_read_ms", ms(ended.Sub(began)))
		l := lay[s.ID]
		t.total("read.scanned", float64(l.scanned))
		t.total("read.own", float64(l.own))
		var body []byte
		for _, ev := range evs {
			body = append(append(body, ev...), '\n')
		}
		if err := checkEvents(s.Kind, body); err != nil {
			e.mistake(fmt.Errorf("store.Events(%s): %w", s.ID, err))
		}
	}
}

// enactOp is one traced enactment: the pipeline through minimize, the
// placement, enact.Run over simulated services, the records through
// the store API, then the same request through the server handler.
func (e *traceEnv) enactOp(ctx context.Context, i int, p process) {
	t := e.t
	began := time.Now()
	root := len(t.spans)
	t.spans = append(t.spans, span{ID: root, Parent: -1, Op: i, Name: "op.enact"})
	defer func() { t.spans[root].Start, t.spans[root].End = t.at(began), t.at(time.Now()) }()

	res, sink, err := t.tracedWeave(ctx, root, i, p.source, e.opts)
	if err != nil {
		e.fail(err)
		return
	}
	minimal := res.Minimize.Minimal
	pb := time.Now()
	plan, err := decentral.Place(minimal, decentral.Pin(res.Parsed.Proc))
	if err == nil {
		plan, err = decentral.CoLocate(minimal, plan)
	}
	if err == nil {
		plan, err = decentral.Fold(minimal, plan, 0)
	}
	pe := time.Now()
	if err != nil {
		e.fail(fmt.Errorf("placement: %w", err))
		return
	}
	t.add(root, i, "decentral.place", pb, pe)
	t.observe("decentral.place_ms", ms(pe.Sub(pb)))
	t.observe("decentral.cross_edges", float64(plan.CrossEdges))

	out, err := e.enact(ctx, root, i, res, plan, sink)
	if err != nil {
		e.fail(err)
		return
	}
	if out.Stats.EdgeMessages != plan.CrossEdges {
		e.mistake(fmt.Errorf("enact.Run sent %d edge messages, plan predicts %d", out.Stats.EdgeMessages, plan.CrossEdges))
	}
	e.seq++
	t.observe("obs.events_per_op", float64(sink.Len()))
	t.appendRun(root, i, e.st, e.stDir, e.seq, "enact", res.Parsed.Proc.Name, sink.Events())

	rec, err := t.serve(root, i, e.srv.Handler(), "/v1/enact", enactBody(p))
	if err != nil {
		e.fail(err)
		return
	}
	var er enactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		e.mistake(err)
	} else if !er.Valid || er.Error != "" {
		e.fail(fmt.Errorf("handler enact: valid=%v error=%q", er.Valid, er.Error))
	} else if err := checkEnact(p, &er); err != nil {
		e.mistake(err)
	}
}

// enact runs enact.Run over simulated services built as the daemon
// builds them, timing every executor call; schedule.self_ms is the
// enactment's wall time not covered by any executor call.
func (e *traceEnv) enact(ctx context.Context, parent, op int, res *weave.Result, plan *decentral.Plan, sink *obs.MemSink) (*enact.Result, error) {
	t := e.t
	proc := res.Parsed.Proc
	bus := services.NewBus(0).Observe(e.opts.Metrics, sink)
	for _, svc := range proc.Services() {
		var emits []services.Emit
		for _, act := range proc.Activities() {
			if act.Kind == core.KindReceive && act.Service == svc.Name && len(act.Writes) > 0 {
				emits = append(emits, services.Emit{Tag: act.Writes[0], Payload: "sim(" + act.Writes[0] + ")"})
			}
		}
		cfg := services.Config{Name: svc.Name, Ports: svc.Ports, Sequential: svc.SequentialPorts}
		if len(emits) > 0 {
			cfg.Handle = func(c *services.Call) ([]services.Emit, error) {
				if done, _ := c.State["emitted"].(bool); done {
					return nil, nil
				}
				c.State["emitted"] = true
				return emits, nil
			}
		}
		if err := bus.Register(cfg); err != nil {
			return nil, err
		}
	}
	binding := schedule.NewBinding(bus)
	defer func() {
		bus.Close()
		binding.Close()
	}()

	type call struct {
		act        *core.Activity
		start, end time.Time
	}
	var mu sync.Mutex
	var calls []call
	execs := binding.Executors(proc, 0)
	for id, inner := range execs {
		inner := inner
		var domain []string
		if a, ok := proc.Activity(id); ok && a.Kind == core.KindDecision {
			domain = a.BranchDomain()
		}
		execs[id] = func(ctx context.Context, a *core.Activity, vars *schedule.Vars) (schedule.Outcome, error) {
			s := time.Now()
			out, err := inner(ctx, a, vars)
			if domain != nil && (err != nil || !slices.Contains(domain, out.Branch)) {
				out, err = schedule.Outcome{Branch: domain[0]}, nil
			}
			mu.Lock()
			calls = append(calls, call{a, s, time.Now()})
			mu.Unlock()
			return out, err
		}
	}
	began := time.Now()
	out, err := enact.Run(ctx, enact.Options{
		Plan: plan, Set: res.Minimize.Minimal, Guards: res.Guards,
		Execs: execs, Inputs: map[string]any{}, Timeout: 10 * time.Second,
		Metrics: e.opts.Metrics, Events: sink,
	})
	ended := time.Now()
	if err != nil {
		return nil, fmt.Errorf("enact.Run: %w", err)
	}
	root := t.add(parent, op, "enact.run", began, ended)
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	var covered time.Duration
	var reach time.Time
	invocations := 0
	for _, c := range calls {
		if c.act.Kind == core.KindInvoke {
			invocations++
			t.add(root, op, "services.invoke", c.start, c.end)
		}
		s := c.start
		if s.Before(reach) {
			s = reach
		}
		if c.end.After(s) {
			covered += c.end.Sub(s)
			reach = c.end
		}
	}
	t.observe("enact.run_ms", ms(ended.Sub(began)))
	t.observe("schedule.self_ms", ms(ended.Sub(began)-covered))
	t.observe("enact.edge_messages", float64(out.Stats.EdgeMessages))
	t.observe("enact.outcome_messages", float64(out.Stats.OutcomeMessages))
	t.observe("schedule.activities_per_run", float64(len(out.Trace.Executed())))
	t.observe("services.invocations", float64(invocations))
	if err := out.Trace.Validate(res.Translated, res.Guards); err != nil {
		return nil, fmt.Errorf("enact.Run trace: %w", err)
	}
	return out, nil
}

// runLayout is where one run's records sit in the segment files:
// scanned is the bytes a replay reads (from its first to its last
// record in each segment), own the bytes of its own records.
type runLayout struct{ scanned, own int64 }

// segmentLayout computes every run's layout from the segment files.
func segmentLayout(dir string) (map[string]runLayout, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, err
	}
	out := map[string]runLayout{}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		first, end := map[string]int64{}, map[string]int64{}
		var off int64
		for len(data) > 0 {
			n := bytes.IndexByte(data, '\n') + 1
			if n == 0 {
				break
			}
			var rec struct {
				Run string `json:"run"`
			}
			if err := json.Unmarshal(data[:n-1], &rec); err != nil {
				return nil, fmt.Errorf("%s at %d: %w", seg, off, err)
			}
			if _, ok := first[rec.Run]; !ok {
				first[rec.Run] = off
			}
			end[rec.Run] = off + int64(n)
			l := out[rec.Run]
			l.own += int64(n)
			out[rec.Run] = l
			off += int64(n)
			data = data[n:]
		}
		for id, f := range first {
			l := out[id]
			l.scanned += end[id] - f
			out[id] = l
		}
	}
	return out, nil
}

// writeSpans writes the spans as JSONL to
// <dir>/<workload>-seed<N>.jsonl.
func writeSpans(dir string, b *bench, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.workload+"-seed"+strconv.FormatInt(b.seed, 10)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
