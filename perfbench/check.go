package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"time"

	"dscweaver/internal/core"
)

// The output checks. Each one is computed by the benchmark itself from
// the generated catalog, or is a property every correct answer has;
// none of them asks the program to grade its own output.

// weaveResponse is the part of POST /v1/weave's body the checks read.
// It leaves out equivalence_checks, which is 0 on a verdict-cache hit.
type weaveResponse struct {
	RunID                 string   `json:"run_id"`
	Process               string   `json:"process"`
	Activities            int      `json:"activities"`
	MergedConstraints     int      `json:"merged_constraints"`
	TranslatedConstraints int      `json:"translated_constraints"`
	MinimalConstraints    int      `json:"minimal_constraints"`
	Removed               int      `json:"removed"`
	VerdictCacheHit       bool     `json:"verdict_cache_hit"`
	Minimal               []string `json:"minimal"`
	Sound                 *bool    `json:"sound"`
	States                int      `json:"states"`
	Truncated             bool     `json:"truncated"`
	Deadlocks             []string `json:"deadlocks"`
	ValidateMethod        string   `json:"validate_method"`
	BPEL                  string   `json:"bpel"`
}

// point is one lifecycle point, "S(a)" or "F(a)".
type point struct {
	start bool
	act   core.ActivityID
}

func parsePoint(s string) (point, error) {
	if len(s) < 4 || (s[0] != 'S' && s[0] != 'F') || s[1] != '(' || s[len(s)-1] != ')' {
		return point{}, fmt.Errorf("bad point %q", s)
	}
	return point{start: s[0] == 'S', act: core.ActivityID(s[2 : len(s)-1])}, nil
}

// constraint is one rendered minimal-set entry: "F(a) → S(b)" or
// "F(a) →[cond] S(b)".
type constraint struct {
	from, to point
	uncond   bool
}

func parseConstraint(s string) (constraint, error) {
	i, j := strings.IndexByte(s, ' '), strings.LastIndexByte(s, ' ')
	if i < 0 || j <= i {
		return constraint{}, fmt.Errorf("bad constraint %q", s)
	}
	from, err := parsePoint(s[:i])
	if err != nil {
		return constraint{}, err
	}
	to, err := parsePoint(s[j+1:])
	if err != nil {
		return constraint{}, err
	}
	arrow := s[i+1 : j]
	if !strings.HasPrefix(arrow, "→") {
		return constraint{}, fmt.Errorf("not a happen-before constraint: %q", s)
	}
	return constraint{from: from, to: to, uncond: arrow == "→"}, nil
}

// pointGraph is the benchmark's own reachability structure over a
// minimal set: one node per lifecycle point, an edge per constraint and
// the implicit S(a) → F(a) edge of every activity.
type pointGraph struct {
	ids  map[point]int
	acts []core.ActivityID // activity of each point id
	out  [][]arc
}

type arc struct {
	to     int
	uncond bool
	cid    int // constraint index, -1 for an activity's own S → F
}

func newPointGraph(acts []core.ActivityID, cs []constraint) *pointGraph {
	g := &pointGraph{ids: map[point]int{}}
	node := func(p point) int {
		if id, ok := g.ids[p]; ok {
			return id
		}
		id := len(g.acts)
		g.ids[p] = id
		g.acts = append(g.acts, p.act)
		g.out = append(g.out, nil)
		return id
	}
	for _, a := range acts {
		s, f := node(point{true, a}), node(point{false, a})
		g.out[s] = append(g.out[s], arc{f, true, -1})
	}
	for k, c := range cs {
		u, v := node(c.from), node(c.to)
		g.out[u] = append(g.out[u], arc{v, c.uncond, k})
	}
	return g
}

// reach reports whether dst is reachable from src. With uncondOnly,
// only unconditional arcs count, arc skip is excluded, and a path may
// pass only through points of activities pass admits.
func (g *pointGraph) reach(src, dst int, uncondOnly bool, skip int, pass func(core.ActivityID) bool) bool {
	seen := make([]bool, len(g.acts))
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.out[u] {
			if seen[a.to] || (uncondOnly && (!a.uncond || (a.cid >= 0 && a.cid == skip))) {
				continue
			}
			if a.to == dst {
				return true
			}
			if pass != nil && !pass(g.acts[a.to]) {
				continue
			}
			seen[a.to] = true
			stack = append(stack, a.to)
		}
	}
	return false
}

// checkWeave verifies one weave answer against its generated process.
// An error means the answer is wrong; the op itself succeeded.
func checkWeave(p process, r *weaveResponse) error {
	if r.Sound == nil || !*r.Sound || r.Truncated {
		return fmt.Errorf("sound=%v truncated=%v", r.Sound, r.Truncated)
	}
	if r.MinimalConstraints+r.Removed != r.TranslatedConstraints || len(r.Minimal) != r.MinimalConstraints {
		return fmt.Errorf("minimal %d (+%d listed) + removed %d != translated %d",
			r.MinimalConstraints, len(r.Minimal), r.Removed, r.TranslatedConstraints)
	}
	acts := p.w.Proc.Activities()
	ids := make([]core.ActivityID, len(acts))
	for i, a := range acts {
		ids[i] = a.ID
	}
	if r.Activities != len(ids) {
		return fmt.Errorf("activities %d, generated %d", r.Activities, len(ids))
	}
	if err := checkBPEL(r.BPEL, ids); err != nil {
		return err
	}
	cs := make([]constraint, len(r.Minimal))
	for i, s := range r.Minimal {
		c, err := parseConstraint(s)
		if err != nil {
			return err
		}
		cs[i] = c
	}
	g := newPointGraph(ids, cs)
	// Every catalog dependency must still be enforced: its target's
	// start is reachable from its source's finish.
	for _, e := range catalogEdges(p.w) {
		src, dst := g.ids[point{false, e.from}], g.ids[point{true, e.to}]
		if !g.reach(src, dst, false, -1, nil) {
			return fmt.Errorf("dependency %s -> %s (%v) not enforced by the minimal set", e.from, e.to, e.dim)
		}
	}
	// Minimality: no unconditional constraint may be implied by another
	// unconditional path whose inner activities no decision guards.
	grd := guarded(p.w)
	for k, c := range cs {
		if !c.uncond {
			continue
		}
		pass := func(a core.ActivityID) bool { return !grd[a] || a == c.from.act || a == c.to.act }
		if g.reach(g.ids[c.from], g.ids[c.to], true, k, pass) {
			return fmt.Errorf("constraint %s is implied by an unconditional path", r.Minimal[k])
		}
	}
	return nil
}

// checkBPEL parses the document as XML and requires a name attribute
// for every process activity.
func checkBPEL(doc string, acts []core.ActivityID) error {
	if doc == "" {
		return fmt.Errorf("no bpel document")
	}
	names := map[string]bool{}
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("bpel: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			for _, a := range se.Attr {
				if a.Name.Local == "name" {
					names[a.Value] = true
				}
			}
		}
	}
	for _, a := range acts {
		if !names[string(a)] {
			return fmt.Errorf("bpel names no activity %s", a)
		}
	}
	return nil
}

// enactResponse is the part of POST /v1/enact's body the checks read.
type enactResponse struct {
	RunID               string `json:"run_id"`
	Valid               bool   `json:"valid"`
	Error               string `json:"error"`
	EdgeMessages        int    `json:"edge_messages"`
	PredictedCrossEdges int    `json:"predicted_cross_edges"`
	Trace               struct {
		Outcomes map[string]string `json:"outcomes"`
		Records  []struct {
			Activity  string `json:"activity"`
			Skipped   bool   `json:"skipped"`
			StartSeq  int    `json:"start_seq"`
			FinishSeq int    `json:"finish_seq"`
		} `json:"records"`
	} `json:"trace"`
}

// checkEnact is the benchmark's own Definition 5 check of a merged
// trace: every activity is recorded once, executed or skipped; each
// catalog dependency between two executed activities finishes its
// source before its target starts (a callback receive finishes after
// its invoke); a branch-guarded activity runs exactly when its
// decision took that branch.
func checkEnact(p process, r *enactResponse) error {
	if r.EdgeMessages != r.PredictedCrossEdges {
		return fmt.Errorf("edge_messages %d != predicted_cross_edges %d", r.EdgeMessages, r.PredictedCrossEdges)
	}
	type rec struct {
		skipped       bool
		start, finish int
	}
	recs := map[core.ActivityID]rec{}
	for _, x := range r.Trace.Records {
		id := core.ActivityID(x.Activity)
		if _, dup := recs[id]; dup {
			return fmt.Errorf("trace records %s twice", id)
		}
		recs[id] = rec{x.Skipped, x.StartSeq, x.FinishSeq}
	}
	acts := p.w.Proc.Activities()
	if len(recs) != len(acts) {
		return fmt.Errorf("trace records %d activities, process has %d", len(recs), len(acts))
	}
	for _, a := range acts {
		x, ok := recs[a.ID]
		if !ok {
			return fmt.Errorf("trace misses activity %s", a.ID)
		}
		if !x.skipped && !(x.start > 0 && x.start < x.finish) {
			return fmt.Errorf("activity %s has start %d finish %d", a.ID, x.start, x.finish)
		}
	}
	for _, e := range catalogEdges(p.w) {
		f, t := recs[e.from], recs[e.to]
		if e.branch != "" {
			took := !f.skipped && r.Trace.Outcomes[string(e.from)] == e.branch
			if took == t.skipped {
				return fmt.Errorf("%s took %q but %s skipped=%v", e.from, r.Trace.Outcomes[string(e.from)], e.to, t.skipped)
			}
		}
		if f.skipped || t.skipped {
			continue
		}
		if e.dim == core.ServiceDim {
			if f.finish >= t.finish {
				return fmt.Errorf("receive %s finished before its invoke %s", e.to, e.from)
			}
		} else if f.finish >= t.start {
			return fmt.Errorf("%s started before %s finished", e.to, e.from)
		}
	}
	return nil
}

// checkEvents requires a whole JSONL replay that opens with the run's
// weave_begin and closes with the end event of its kind: weave_end for
// a weave, bus_closed after every engine's run_end for an enactment.
func checkEvents(kind string, body []byte) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return fmt.Errorf("replay is not newline-terminated JSONL")
	}
	var kinds []string
	begins, ends := 0, 0
	for _, line := range bytes.Split(body[:len(body)-1], []byte{'\n'}) {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &ev); err != nil || ev.Kind == "" {
			return fmt.Errorf("replay line %d is not an event", len(kinds)+1)
		}
		kinds = append(kinds, ev.Kind)
		switch ev.Kind {
		case "run_begin":
			begins++
		case "run_end":
			ends++
		}
	}
	if kinds[0] != "weave_begin" {
		return fmt.Errorf("replay opens with %s", kinds[0])
	}
	last := kinds[len(kinds)-1]
	switch kind {
	case "weave":
		if last != "weave_end" {
			return fmt.Errorf("weave replay ends with %s", last)
		}
	case "enact":
		if last != "bus_closed" || begins == 0 || begins != ends {
			return fmt.Errorf("enact replay ends with %s after %d/%d engine runs", last, ends, begins)
		}
	default:
		return fmt.Errorf("unexpected run kind %q", kind)
	}
	return nil
}

// runSummary is one GET /v1/runs entry.
type runSummary struct {
	Began time.Time `json:"began"`
}

// checkListing requires a newest-first listing of exactly limit runs
// (the history always holds more).
func checkListing(body []byte, limit int) error {
	var runs []runSummary
	if err := json.Unmarshal(body, &runs); err != nil {
		return fmt.Errorf("listing: %w", err)
	}
	if len(runs) != limit {
		return fmt.Errorf("listing holds %d runs, limit %d", len(runs), limit)
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].Began.After(runs[i-1].Began) {
			return fmt.Errorf("listing not newest-first at %d", i)
		}
	}
	return nil
}
