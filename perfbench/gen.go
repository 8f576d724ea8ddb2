package main

import (
	"fmt"
	"strings"

	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/workload"
)

// Input streams. Every generated process is a pure function of
// (--seed, stream, index), so two runs with one seed send the same
// requests in the same order.
const (
	streamCold  = 1 // weave-cold timed sequence
	streamWarm  = 2 // weave-cold warm-up requests
	streamHot   = 3 // weave-hot set
	streamEnact = 4 // enact-history process pool
	streamMix   = 5 // enact-history op-class and target draws
)

const (
	hotSetSize   = 64 // below the daemon's 256-entry verdict cache
	enactPool    = 32
	historyRuns  = 320 // stored runs; the daemon's ring caches 128
	coldWarmups  = 4
	setupRepeats = 5 // daemon launches per run; setup_s is their median
)

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap
// bijective mixer that turns (seed, stream, index) into independent
// generator seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derive(seed int64, stream, i int) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed))^uint64(stream)) ^ uint64(i))
}

// process is one generated input: the catalog the checks reason over
// and the DSCL text the daemon receives.
type process struct {
	w      *workload.Workload
	source string
}

func render(w *workload.Workload) process {
	return process{w: w, source: dscl.PrintDocument(&dscl.Document{
		Proc: w.Proc, Deps: w.Deps, Extra: core.NewConstraintSet(w.Proc),
	})}
}

// weaveShape is the weave workloads' process: 12 ranks of 8 plus two
// service callbacks (98 activities), with shortcut edges for the
// minimizer to remove, one decision and two asynchronous services.
func weaveShape(genSeed int64) *workload.Workload {
	return workload.Layered(12, 8, 0.3, genSeed).WithShortcuts(8).WithDecisions(1).WithServices(2)
}

// enactShape is the enactment process: 8 ranks of 4 plus two service
// callbacks, so the natural placement spans three hosts.
func enactShape(genSeed int64) *workload.Workload {
	return workload.Layered(8, 4, 0.3, genSeed).WithShortcuts(4).WithDecisions(1).WithServices(2)
}

func genWeave(seed int64, stream, i int) process {
	return render(weaveShape(int64(derive(seed, stream, i) >> 1)))
}

// genEnactPool draws the enact-history processes. It skips every
// generator seed whose process puts an invoke on a decision branch:
// core.DeriveGuards gives that invoke's callback receive the guard ⊤,
// so the receive waits for a callback that never comes when the
// branch is not taken (see README.md, "Known fault").
func genEnactPool(seed int64) []process {
	var out []process
	for i := 0; len(out) < enactPool; i++ {
		w := enactShape(int64(derive(seed, streamEnact, i) >> 1))
		if len(guardedInvokes(w)) > 0 {
			continue
		}
		out = append(out, render(w))
	}
	return out
}

// guarded returns the activities a decision branch guards: targets of
// branch-labelled control dependencies, closed over further control
// dependencies out of guarded activities.
func guarded(w *workload.Workload) map[core.ActivityID]bool {
	g := map[core.ActivityID]bool{}
	for changed := true; changed; {
		changed = false
		for _, d := range w.Deps.All() {
			if d.Dim != core.Control || d.From.IsService() || d.To.IsService() || g[d.To.Activity] {
				continue
			}
			if d.Branch != "" || g[d.From.Activity] {
				g[d.To.Activity] = true
				changed = true
			}
		}
	}
	return g
}

// guardedInvokes lists the invoke activities a decision branch guards.
func guardedInvokes(w *workload.Workload) []*core.Activity {
	g := guarded(w)
	var out []*core.Activity
	for _, a := range w.Proc.Activities() {
		if a.Kind == core.KindInvoke && g[a.ID] {
			out = append(out, a)
		}
	}
	return out
}

// edge is one activity-level ordering the catalog demands.
type edge struct {
	from, to core.ActivityID
	dim      core.Dimension
	branch   string
}

// catalogEdges flattens the dependency catalog to activity pairs. A
// service chain invoker → svc.port → svc.callback → receive becomes
// the single pair invoker → receive.
func catalogEdges(w *workload.Workload) []edge {
	var out []edge
	invoker := map[string]core.ActivityID{}
	for _, d := range w.Deps.All() {
		if !d.From.IsService() && d.To.IsService() {
			invoker[d.To.Service] = d.From.Activity
		}
	}
	for _, d := range w.Deps.All() {
		switch {
		case !d.From.IsService() && !d.To.IsService():
			out = append(out, edge{d.From.Activity, d.To.Activity, d.Dim, d.Branch})
		case d.From.IsService() && !d.To.IsService():
			if inv, ok := invoker[d.From.Service]; ok {
				out = append(out, edge{inv, d.To.Activity, core.ServiceDim, ""})
			}
		}
	}
	return out
}

// Request bodies: the weave workloads validate and generate BPEL.
func weaveBody(p process) map[string]any {
	return map[string]any{"source": p.source, "validate": true, "bpel": true}
}

func enactBody(p process) map[string]any {
	return map[string]any{"source": p.source, "timeout_ms": 10000}
}

// listGuardFault prints the enact-shape generator seeds in [0, n) whose
// process puts an invoke on a decision branch while core.DeriveGuards
// gives its callback receive the guard ⊤ — the receive then waits for
// a callback that never comes whenever the branch is not taken.
func listGuardFault(n int) error {
	var tripped []string
	for s := 0; s < n; s++ {
		w := enactShape(int64(s))
		invs := guardedInvokes(w)
		if len(invs) == 0 {
			continue
		}
		sc, err := w.Constraints()
		if err != nil {
			return err
		}
		if err := sc.Desugar(); err != nil {
			return err
		}
		guards, err := core.DeriveGuards(sc)
		if err != nil {
			return err
		}
		var pairs []string
		for _, inv := range invs {
			for _, a := range w.Proc.Activities() {
				if a.Kind == core.KindReceive && a.Service == inv.Service && guards[core.ActivityNode(a.ID)].IsTrue() {
					pairs = append(pairs, fmt.Sprintf("%s guarded, %s guard ⊤", inv.ID, a.ID))
				}
			}
		}
		if len(pairs) > 0 {
			tripped = append(tripped, fmt.Sprintf("%d: %s", s, strings.Join(pairs, "; ")))
		}
	}
	fmt.Printf("%d of %d seeds of workload.Layered(8,4,0.3,seed).WithShortcuts(4).WithDecisions(1).WithServices(2) trip the fault:\n", len(tripped), n)
	fmt.Println(strings.Join(tripped, "\n"))
	return nil
}
