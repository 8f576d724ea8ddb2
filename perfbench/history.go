package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
)

// storedRun is one run of the starting history.
type storedRun struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
}

// enactHistory restarts the daemon over a stored history larger than
// its in-memory ring and serves a seeded mix of enactments, listings
// and event replays of stored and current runs.
type enactHistory struct {
	seed    int64
	pool    []process
	dir     string      // starting history (a store directory)
	stored  []storedRun // its runs, in creation order
	current []string    // the warm-up enactments of this daemon launch, in pool order
}

// The mix is cmd/dscbench's "decentral" mix without its weave and
// simulate classes: enact, runs and events drawn 4:2:2, listings with
// ?limit=50 as dscbench sends them.
const (
	mixEnact  = 4
	mixRuns   = 2
	mixEvents = 2
	listLimit = 50
)

func (w *enactHistory) history() string { return w.dir }
func (w *enactHistory) primary() string { return "enact" }
func (w *enactHistory) rate() int       { return 600 }

func (w *enactHistory) prepare(b *bench) error {
	w.seed = b.seed
	w.pool = genEnactPool(b.seed)
	key, err := historyKey(b)
	if err != nil {
		return err
	}
	w.dir = filepath.Join(b.cache, "history-"+key)
	manifest := filepath.Join(w.dir, "runs.json")
	if data, err := os.ReadFile(manifest); err == nil {
		if err := json.Unmarshal(data, &w.stored); err == nil && len(w.stored) == historyRuns {
			return nil
		}
	}
	return w.writeHistory(b, manifest)
}

// historyKey names a starting history by what determines it: the seed
// and the daemon binary that wrote it.
func historyKey(b *bench) (string, error) {
	f, err := os.Open(b.daemon)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "seed" + strconv.FormatInt(b.seed, 10) + "-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// writeHistory drives a daemon over an empty store through the API:
// historyRuns requests alternating weave and enact over the pool, two
// clients at a time so the runs' records interleave in the segments.
// The daemon then drains, which seals the store.
func (w *enactHistory) writeHistory(b *bench, manifest string) error {
	tmp := w.dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	d, err := startDaemon(b.daemon, tmp, filepath.Join(b.dir, "history-daemon.log"))
	if err != nil {
		return err
	}
	cs := make([]*client, b.clients)
	for i := range cs {
		cs[i] = newClient(d.base)
	}
	runs := make([]storedRun, historyRuns)
	ctx := context.Background()
	_, err = fanOut(ctx, cs, historyRuns, func(ctx context.Context, c *client, i int) (func() error, error) {
		p := w.pool[(i/2)%len(w.pool)]
		if i%2 == 0 {
			r, body := postWeave(ctx, c, p)
			if r.failed != nil {
				return nil, r.failed
			}
			wr, err := decodeWeave(body)
			if err != nil {
				return nil, err
			}
			runs[i] = storedRun{ID: wr.RunID, Kind: "weave"}
			return nil, nil
		}
		r, er := w.enact(ctx, c, p)
		if r.failed != nil {
			return nil, r.failed
		}
		if r.wrong != nil {
			return nil, r.wrong
		}
		runs[i] = storedRun{ID: er.RunID, Kind: "enact"}
		return nil, nil
	})
	for _, c := range cs {
		c.close()
	}
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("history daemon: %w", serr)
	}
	if err != nil {
		return fmt.Errorf("write starting history: %w", err)
	}
	data, err := json.Marshal(runs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "runs.json"), data, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.dir); err != nil {
		return err
	}
	w.stored = runs
	return nil
}

// enact posts one local decentralized enactment and checks it.
func (w *enactHistory) enact(ctx context.Context, c *client, p process) (opResult, *enactResponse) {
	r, body := postEnact(ctx, c, p)
	if r.failed != nil {
		return r, nil
	}
	return checkEnactAnswer(p, r, body)
}

// postEnact posts one local decentralized enactment and returns the
// answer's body; checkEnactAnswer decodes and checks it.
func postEnact(ctx context.Context, c *client, p process) (opResult, []byte) {
	code, body, _, lat, err := c.do(ctx, http.MethodPost, "/v1/enact", enactBody(p))
	r := opResult{class: "enact", lat: lat}
	switch {
	case err != nil:
		r.failed = err
	case code != http.StatusOK:
		r.failed = fmt.Errorf("enact: HTTP %d: %.200s", code, body)
	}
	return r, body
}

func checkEnactAnswer(p process, r opResult, body []byte) (opResult, *enactResponse) {
	var er enactResponse
	if err := json.Unmarshal(body, &er); err != nil {
		r.wrong = fmt.Errorf("enact: %w", err)
		return r, nil
	}
	if !er.Valid || er.Error != "" {
		r.failed = fmt.Errorf("enact %s: valid=%v error=%q", er.RunID, er.Valid, er.Error)
		return r, &er
	}
	r.wrong = checkEnact(p, &er)
	return r, &er
}

// warmup enacts every pool member once, so the timed enactments find
// their minimal sets in the verdict cache like any re-run process.
// These enactments are the current launch's runs the timed event
// replays read, so every run replays the same ones.
func (w *enactHistory) warmup(ctx context.Context, b *bench, cs []*client, repeat int) ([]func() error, error) {
	w.current = make([]string, len(w.pool))
	return fanOut(ctx, cs, len(w.pool), func(ctx context.Context, c *client, i int) (func() error, error) {
		r, body := postEnact(ctx, c, w.pool[i])
		if r.failed != nil {
			return nil, r.failed
		}
		return func() error {
			r, er := checkEnactAnswer(w.pool[i], r, body)
			if r.failed != nil {
				return r.failed
			}
			if r.wrong != nil {
				return r.wrong
			}
			w.current[i] = er.RunID
			return nil
		}, nil
	})
}

func (w *enactHistory) op(ctx context.Context, c *client, i int) opResult {
	x := derive(w.seed, streamMix, i)
	pick := int((x >> 16) % (1 << 30))
	switch cls := x % (mixEnact + mixRuns + mixEvents); {
	case cls < mixEnact:
		r, _ := w.enact(ctx, c, w.pool[int(x>>8)%len(w.pool)])
		return r
	case cls < mixEnact+mixRuns:
		code, body, _, lat, err := c.do(ctx, http.MethodGet, "/v1/runs?limit="+strconv.Itoa(listLimit), nil)
		r := opResult{class: "runs", lat: lat}
		switch {
		case err != nil:
			r.failed = err
		case code != http.StatusOK:
			r.failed = fmt.Errorf("runs: HTTP %d", code)
		default:
			r.wrong = checkListing(body, listLimit)
		}
		return r
	default:
		var id, kind string
		if (x>>8)&1 == 0 {
			s := w.stored[pick%len(w.stored)]
			id, kind = s.ID, s.Kind
		} else {
			id, kind = w.current[pick%len(w.current)], "enact"
		}
		code, body, hdr, lat, err := c.do(ctx, http.MethodGet, "/v1/runs/"+id+"/events", nil)
		r := opResult{class: "events", lat: lat}
		switch {
		case err != nil:
			r.failed = err
		case code != http.StatusOK:
			r.failed = fmt.Errorf("events %s: HTTP %d", id, code)
		case hdr.Get("X-Dscweaver-Truncated") != "":
			r.wrong = fmt.Errorf("events %s: truncated replay", id)
		default:
			if err := checkEvents(kind, body); err != nil {
				r.wrong = fmt.Errorf("events %s: %w", id, err)
			}
		}
		return r
	}
}
