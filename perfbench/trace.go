package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/hier"
	"patlabor/internal/lut"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

// span is one timed call into a layer. Spans of one unit (a routed net
// or a reroute) share Unit. A replayed span re-executes, after its
// parent returned, work the parent did internally — the program has no
// spans of its own yet — so it lies outside the parent's interval, and a
// span's self time is its duration minus its children's durations
// (which, for the serial traced pass, equals the duration minus the part
// its live children cover).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Unit   int32  `json:"unit"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	unit  int32
	// windows and routes count the local-search windows consulted and
	// the local searches traced, for core.windows_per_net.
	windows, routes int
	key             []byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32, replay bool) int32 {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Unit: t.unit, Replay: replay})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.t0)) }

func (t *tracer) rename(id int32, name string) { t.spans[id].Name = name }

// replayKey re-runs the canonical-key computation a table query made
// inside span parent.
func (t *tracer) replayKey(parent int32, net tree.Net) {
	k := t.begin("hanan.key", parent, true)
	r := hanan.RanksOf(net)
	t.key, _ = hanan.AppendCanonicalKey(t.key[:0], r.Pattern)
	t.end(k)
}

// replayRoute replays the child layers of one local search (span
// parent) on net: its RSMT seed, and the windows it solved rather than
// answered from the memo — the first `solved` windows whose keys are not
// in seen — each a table query and, on a table miss, a Pareto-DW.
func (t *tracer) replayRoute(ctx context.Context, parent int32, table *lut.Table, net tree.Net, windows []core.TraceWindow, seen map[string]bool, solved int) error {
	r := t.begin("rsmt.tree", parent, true)
	rsmt.Tree(net)
	t.end(r)
	for _, w := range windows {
		if solved == 0 {
			break
		}
		if seen[w.Key] {
			continue
		}
		seen[w.Key] = true
		solved--
		sub := tree.Net{Pins: make([]geom.Point, len(w.Pins))}
		for i, p := range w.Pins {
			sub.Pins[i] = net.Pins[p]
		}
		q := t.begin("lut.query", parent, true)
		_, ok, err := table.Query(sub)
		t.end(q)
		t.replayKey(q, sub)
		if err != nil {
			return err
		}
		if ok {
			continue
		}
		d := t.begin("dw.window", parent, true)
		_, err = dw.FrontierContext(ctx, sub, dw.DefaultOptions())
		t.end(d)
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedHier routes a huge net through hier with one worker, so the span
// is serial work, then replays the levels hier ran: the partition and
// port choice, one exact window per multi-pin cluster, and the flat
// route of the last top-level net. What the replays leave of the span
// is the ⊕ stitch (combination, grafting and Steinerization).
func (t *tracer) tracedHier(ctx context.Context, table *lut.Table, cache *core.SubCache, net tree.Net) (frontier, error) {
	root := t.begin("hier.route", -1, false)
	items, err := hier.RouteContext(ctx, net, hier.Options{Workers: 1, Core: core.Options{Table: table, Cache: cache}})
	t.end(root)
	if err != nil {
		return nil, err
	}
	// hier's defaults: clusters as large as the table answers (at least
	// MinClusterSize), crossover DefaultCrossover.
	cs := max(hier.MinClusterSize, table.MaxCovered(core.DefaultLambda))
	cur := net
	for cur.Degree() > max(hier.DefaultCrossover, cs+2) {
		p := t.begin("hier.partition", root, true)
		clusters := hier.Partition(cur, cs)
		ports := make([]int, len(clusters))
		top := tree.Net{Pins: []geom.Point{cur.Pins[0]}}
		for i, cl := range clusters {
			ports[i] = hier.Port(cur, cl)
			top.Pins = append(top.Pins, cur.Pins[ports[i]])
		}
		t.end(p)
		for i, cl := range clusters {
			if len(cl) == 1 {
				continue
			}
			pins := []int{ports[i]}
			for _, q := range cl {
				if q != ports[i] {
					pins = append(pins, q)
				}
			}
			w := t.begin("hier.window", root, true)
			_, err := core.WindowFrontier(ctx, cur, pins, core.Options{Table: table})
			t.end(w)
			if err != nil {
				return nil, err
			}
		}
		cur = top
	}
	tp := t.begin("hier.top", root, true)
	_, err = core.RouteContext(ctx, cur, core.Options{Table: table})
	t.end(tp)
	return items, err
}

// layerTimes aggregates the spans by name: total duration, self time
// (duration minus children) and call count, in seconds. root is the
// summed duration of the root spans — the traced pass's real work — and
// the self times of all spans sum to it exactly.
type layerTimes struct {
	total, self map[string]float64
	calls       map[string]float64
	root        float64
}

func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}, calls: map[string]float64{}}
	children := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e9
		lt.total[s.Name] += d
		lt.self[s.Name] += d - children[i]
		lt.calls[s.Name]++
		if s.Parent < 0 {
			lt.root += d
		}
	}
	return lt
}

// splitNames maps span names to the layer their self time is charged
// to: what a local search or a hier route does beyond its replayed
// children is the search itself and the stitch, respectively.
var splitNames = map[string]string{
	"core.route": "core.search_self",
	"hier.route": "hier.stitch",
	"eco.memo":   "eco.memo_self",
}

// split returns each layer's self time; the values sum to lt.root.
func (lt layerTimes) split() map[string]float64 {
	out := map[string]float64{}
	for name, s := range lt.self {
		if alias, ok := splitNames[name]; ok {
			name = alias
		}
		out[name] += s
	}
	return out
}

// metrics renders the span-derived per-layer metrics.
func (lt layerTimes) metrics(tr *tracer) map[string]float64 {
	m := map[string]float64{
		"hanan.key_s":          lt.total["hanan.key"],
		"lut.query_s":          lt.self["lut.query"],
		"dw.window_calls":      lt.calls["dw.window"],
		"dw.window_s":          lt.total["dw.window"],
		"dw.small_calls":       lt.calls["dw.small"],
		"dw.small_s":           lt.total["dw.small"],
		"core.route_s":         lt.total["core.route"],
		"core.search_self_s":   lt.self["core.route"],
		"core.windows_per_net": ratio(float64(tr.windows), float64(tr.routes)),
		"rsmt.tree_calls":      lt.calls["rsmt.tree"],
		"rsmt.tree_s":          lt.total["rsmt.tree"],
		"hier.partition_s":     lt.total["hier.partition"],
		"hier.window_s":        lt.total["hier.window"],
		"hier.top_s":           lt.total["hier.top"],
		"hier.stitch_s":        lt.self["hier.route"],
		"eco.apply_s":          lt.total["eco.apply"],
	}
	for layer, v := range lt.replayShares() {
		m["replay."+layer+"_share"] = v
	}
	return m
}

// replayShares are the layer shares the pprof cross-check compares,
// inclusive of each layer's callees as a CPU profile counts them.
func (lt layerTimes) replayShares() map[string]float64 {
	return map[string]float64{
		"dw":          ratio(lt.total["dw.window"]+lt.total["dw.small"], lt.root),
		"rsmt":        ratio(lt.total["rsmt.tree"], lt.root),
		"lut":         ratio(lt.total["lut.query"], lt.root),
		"hier_stitch": ratio(lt.self["hier.route"], lt.root),
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
