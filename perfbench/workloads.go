package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/eco"
	"patlabor/internal/engine"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/tree"
)

// workers is every workload's worker count: one per core of the
// two-core machines the bounds were set on; more workers than cores
// measure coordination, not routing.
const workers = 2

// workload is one benchmark traffic mix. Requests run in order
// 0, 1, 2, … and each caller waits for its result (a closed loop with one
// client); a request delivers one or more routed nets.
type workload interface {
	// setup discards all state, builds a fresh lookup table, generates
	// the inputs from seed and warms up. Everything the timed loop uses
	// is built here.
	setup(seed int64) error
	// prepare runs before request i, outside the timed region: eco-churn
	// starts a fresh session there when its edit streams end.
	prepare(i int) error
	// request runs request i and returns the nets it routed (for ECO,
	// the post-edit nets) with their frontiers, aligned.
	request(ctx context.Context, i int) ([]tree.Net, []frontier, error)
	// verify applies the workload's own oracle to request i's outputs,
	// outside the timed region, after the generic frontier checks. It
	// runs between requests, so it allocates little: an oracle that
	// costs as much as a request keeps what it needs for finish. It
	// returns the number of wrong units and the first problem.
	verify(i int, nets []tree.Net, out []frontier) (int, error)
	// finish runs the oracles verify deferred, after the last request.
	finish() (int, error)
	// validate reports whether request i's trees get the full
	// tree.Validate walk (the O(n) checks always run).
	validate(i int) bool
	// qualityRequests is the fixed request prefix that hv_norm and the
	// output digest are taken over, so both depend on the seed and the
	// program only, never on how many requests fit in the run.
	qualityRequests() int
	// traceRequests is the fixed request prefix of a traced run.
	traceRequests() int
	// tailPercentile is the fixed percentile tail_ms reports. It leaves
	// at least ten requests beyond it in the seed code's runs unless the
	// host runs at under about 0.6 of its reference speed; fixing it
	// keeps a faster change compared at the same percentile.
	tailPercentile() float64
	// counters reads the layers' public counters accumulated since the
	// last setup.
	counters() map[string]float64
	// traced re-runs requests [0, n) after a fresh setup from seed,
	// calling each layer from the benchmark and recording spans into tr.
	traced(ctx context.Context, seed int64, tr *tracer, n int) ([][]pareto.Sol, error)
}

// newWorkload sizes each workload so a run of run_seconds is steady on a
// shared two-core host: requests long enough that a passing stall of the
// host moves few of them (one 65536-net batch for small-nets; 24-net
// designs for iccad-mix), enough distinct nets that the seed moves
// little (48 tracked nets for eco-churn), and inputs that cover their
// range evenly in any prefix, so the run length does not change the mix.
func newWorkload(name string) (workload, error) {
	switch name {
	case "iccad-mix":
		return &iccadMix{designNets: 24, designs: 64}, nil
	case "small-nets":
		return &smallNets{batchNets: 65536, batches: 1}, nil
	case "eco-churn":
		return &ecoChurn{nets: 48, steps: 6}, nil
	case "huge-net":
		return &hugeNet{pool: 256}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have iccad-mix, small-nets, eco-churn, huge-net)", name)
}

// newTable builds the default lookup table (degrees 2..5) from scratch,
// so table generation is part of every measured set-up.
func newTable() (*lut.Table, error) {
	t := lut.New()
	for d := 2; d <= lut.DefaultEagerDegree; d++ {
		if err := t.Generate(d, workers); err != nil {
			return nil, fmt.Errorf("generating table degree %d: %w", d, err)
		}
	}
	return t, nil
}

// tableCounters is one reading of a table's public counters.
type tableCounters struct{ hits, misses, evaluated, materialized int64 }

func readTable(t *lut.Table) tableCounters {
	var c tableCounters
	c.hits, c.misses = t.Counters()
	c.evaluated, c.materialized = t.EvalCounters()
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// lutCounters renders the table counters accumulated since base.
func lutCounters(t *lut.Table, base tableCounters) map[string]float64 {
	c := readTable(t)
	hits, misses := float64(c.hits-base.hits), float64(c.misses-base.misses)
	return map[string]float64{
		"lut.query_calls":        hits + misses,
		"lut.hit_ratio":          ratio(hits, hits+misses),
		"lut.materialized_ratio": ratio(float64(c.materialized-base.materialized), float64(c.evaluated-base.evaluated)),
	}
}

// engineCounters renders an engine's cumulative Stats.
func engineCounters(s engine.Stats) map[string]float64 {
	return map[string]float64{
		"engine.parallel_eff":    ratio(s.Busy.Seconds(), s.Elapsed.Seconds()*float64(workers)),
		"engine.dedup_hit_ratio": ratio(float64(s.DedupHits), float64(s.DedupHits+s.DedupMisses)),
		"core.window_hit_ratio":  ratio(float64(s.SubFrontierHits), float64(s.SubFrontierHits+s.SubFrontierMisses)),
		"hier.clusters":          float64(s.HierClusters),
	}
}

// statsSum returns a + k·b over the engine counters the benchmark reads.
func statsSum(a, b engine.Stats, k int64) engine.Stats {
	return engine.Stats{
		Busy:              a.Busy + time.Duration(k)*b.Busy,
		Elapsed:           a.Elapsed + time.Duration(k)*b.Elapsed,
		DedupHits:         a.DedupHits + k*b.DedupHits,
		DedupMisses:       a.DedupMisses + k*b.DedupMisses,
		SubFrontierHits:   a.SubFrontierHits + k*b.SubFrontierHits,
		SubFrontierMisses: a.SubFrontierMisses + k*b.SubFrontierMisses,
		HierClusters:      a.HierClusters + k*b.HierClusters,
	}
}

func merge(dst, src map[string]float64) map[string]float64 {
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// iccadMix routes ICCAD-15-like designs, one engine.RouteAll batch per
// design on a fresh engine with its caches on: the paper's own traffic,
// where the λ = 9 local-search windows and the Pareto-DW dominate.
type iccadMix struct {
	designNets int
	designs    int

	table  *lut.Table
	inputs [][]tree.Net
	// eng is the last request's engine, held until the next request
	// like a router holds its state between designs.
	eng   *engine.Engine
	stats engine.Stats // accumulated over the request engines since setup
	tbase tableCounters
}

// iccadDesign generates one design of n nets. Degrees are the ICCAD mix's
// quantiles at (i+½)/n, so every design — every seed — carries the same
// degree histogram and designs differ in geometry only; the nets are
// netgen.Suite's (a displaced driver over a cluster that widens with
// degree), listed in a seeded random order as a placed design would list
// them.
func iccadDesign(seed int64, n int) []tree.Net {
	cfg := netgen.DefaultSuiteConfig()
	mix := netgen.ICCADMix()
	var total float64
	for _, e := range mix {
		total += e.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]tree.Net, 0, n)
	k, cum := 0, mix[0].Weight
	for i := 0; i < n; i++ {
		for u := (float64(i) + 0.5) / float64(n) * total; cum < u && k < len(mix)-1; {
			k++
			cum += mix[k].Weight
		}
		deg := mix[k].Degree
		span := cfg.ClusterSpan
		if deg > 9 {
			span = cfg.ClusterSpan * int64(1+deg/10)
		}
		out = append(out, netgen.ClusteredDriver(rng, deg, cfg.Span, span))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *iccadMix) setup(seed int64) error {
	*w = iccadMix{designNets: w.designNets, designs: w.designs}
	t, err := newTable()
	if err != nil {
		return err
	}
	w.table = t
	w.inputs = make([][]tree.Net, w.designs)
	for d := range w.inputs {
		w.inputs[d] = iccadDesign(seed*1000+int64(d), w.designNets)
	}
	// Warm-up: the first design's nets of degree ≤ 12 through a
	// throwaway engine — every layer runs, and the designs' fixed degree
	// histogram keeps the warm-up's cost the same for every seed.
	var warmNets []tree.Net
	for _, n := range w.inputs[0] {
		if n.Degree() <= 12 {
			warmNets = append(warmNets, n)
		}
	}
	warm, err := engine.New(engine.Options{Workers: workers, Table: t})
	if err != nil {
		return err
	}
	if _, err := warm.RouteAll(context.Background(), warmNets); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.stats = engine.Stats{}
	w.tbase = readTable(t)
	return nil
}

func (w *iccadMix) request(ctx context.Context, i int) ([]tree.Net, []frontier, error) {
	nets := w.inputs[i%len(w.inputs)]
	w.eng = nil
	eng, err := engine.New(engine.Options{Workers: workers, Table: w.table})
	if err != nil {
		return nil, nil, err
	}
	out, err := eng.RouteAll(ctx, nets)
	w.eng = eng
	w.stats = statsSum(w.stats, eng.Stats(), 1)
	return nets, out, err
}

func (w *iccadMix) prepare(int) error                               { return nil }
func (w *iccadMix) verify(int, []tree.Net, []frontier) (int, error) { return 0, nil }
func (w *iccadMix) finish() (int, error)                            { return 0, nil }
func (w *iccadMix) validate(int) bool                               { return true }
func (w *iccadMix) qualityRequests() int                            { return 2 }
func (w *iccadMix) traceRequests() int                              { return 16 }
func (w *iccadMix) tailPercentile() float64                         { return 75 }

func (w *iccadMix) counters() map[string]float64 {
	return merge(engineCounters(w.stats), lutCounters(w.table, w.tbase))
}

func (w *iccadMix) traced(ctx context.Context, seed int64, tr *tracer, n int) ([][]pareto.Sol, error) {
	if err := w.setup(seed); err != nil {
		return nil, err
	}
	var out [][]pareto.Sol
	for i := 0; i < n; i++ {
		// A fresh window memo per design, as each request's engine has.
		cache := core.NewSubCache(0)
		seen := make(map[string]bool)
		for _, net := range w.inputs[i%len(w.inputs)] {
			tr.unit++
			items, err := tracedNet(ctx, tr, w.table, cache, seen, net)
			if err != nil {
				return nil, err
			}
			out = append(out, sols(items))
		}
	}
	return out, nil
}

// tracedNet routes one net the way core.Route does, calling each layer
// from the benchmark: nets of degree ≤ λ go to the table and, on a miss,
// to the Pareto-DW; larger nets run the local search with its window
// trace on, and the layers it called are replayed afterwards. seen holds
// the window keys already solved into cache, so only windows the search
// actually solved are replayed.
func tracedNet(ctx context.Context, tr *tracer, table *lut.Table, cache *core.SubCache, seen map[string]bool, net tree.Net) (frontier, error) {
	if net.Degree() <= core.DefaultLambda {
		q := tr.begin("lut.query", -1, false)
		items, ok, err := table.Query(net)
		tr.end(q)
		tr.replayKey(q, net)
		if err != nil || ok {
			return items, err
		}
		d := tr.begin("dw.small", -1, false)
		items, err = dw.FrontierContext(ctx, net, dw.DefaultOptions())
		tr.end(d)
		return items, err
	}
	var st core.SubTrace
	_, m0 := cache.Counters()
	c := tr.begin("core.route", -1, false)
	items, err := core.RouteContext(ctx, net, core.Options{Table: table, Cache: cache, Trace: &st})
	tr.end(c)
	if err != nil {
		return nil, err
	}
	_, m1 := cache.Counters()
	tr.windows += len(st.Windows)
	tr.routes++
	if err := tr.replayRoute(ctx, c, table, net, st.Windows, seen, int(m1-m0)); err != nil {
		return nil, err
	}
	return items, nil
}

// smallNets routes high-volume batches of degree 2–5 nets — every one a
// table hit — through one engine, a quarter of them translated copies
// (bus bits) the batch dedup answers. Key, LUT query, dedup and dispatch
// do all the work; the Pareto-DW and the local search do none.
type smallNets struct {
	batchNets int
	batches   int

	table *lut.Table
	eng   *engine.Engine
	base  engine.Stats
	tbase tableCounters
	// ref holds each batch's frontiers from its first pass, checked
	// against the Pareto-DW by finish; later passes must reproduce them.
	ref    [][][]pareto.Sol
	inputs [][]tree.Net
}

func smallBatch(rng *rand.Rand, n int) []tree.Net {
	nets := make([]tree.Net, n)
	for i := range nets {
		if i%4 == 3 {
			// A bus bit: an earlier net of the batch, translated.
			src := nets[rng.Intn(i)]
			shift := geom.Pt(10000+rng.Int63n(80000), 10000+rng.Int63n(80000)).Sub(src.Pins[0])
			pins := make([]geom.Point, len(src.Pins))
			for k, p := range src.Pins {
				pins[k] = p.Add(shift)
			}
			nets[i] = tree.Net{Pins: pins}
			continue
		}
		nets[i] = netgen.ClusteredDriver(rng, 2+i%4, 100000, 4000)
	}
	return nets
}

func (w *smallNets) setup(seed int64) error {
	*w = smallNets{batchNets: w.batchNets, batches: w.batches}
	t, err := newTable()
	if err != nil {
		return err
	}
	w.table = t
	rng := rand.New(rand.NewSource(seed))
	w.inputs = make([][]tree.Net, w.batches)
	for b := range w.inputs {
		w.inputs[b] = smallBatch(rng, w.batchNets)
	}
	w.ref = make([][][]pareto.Sol, w.batches)
	w.eng, err = engine.New(engine.Options{Workers: workers, Table: t})
	if err != nil {
		return err
	}
	if _, err := w.eng.RouteAll(context.Background(), w.inputs[0]); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.base = w.eng.Stats()
	w.tbase = readTable(t)
	return nil
}

func (w *smallNets) prepare(int) error { return nil }

func (w *smallNets) request(ctx context.Context, i int) ([]tree.Net, []frontier, error) {
	nets := w.inputs[i%len(w.inputs)]
	out, err := w.eng.RouteAll(ctx, nets)
	return nets, out, err
}

// validate: a batch's later passes repeat its first, whose trees get
// the full walk.
func (w *smallNets) validate(i int) bool { return i < len(w.inputs) }

// verify keeps a batch's first-pass frontiers and compares every later
// pass with them.
func (w *smallNets) verify(i int, nets []tree.Net, out []frontier) (int, error) {
	b := i % len(w.inputs)
	if w.ref[b] == nil {
		w.ref[b] = make([][]pareto.Sol, len(nets))
		for k := range nets {
			w.ref[b][k] = sols(out[k])
		}
		return 0, nil
	}
	bad := 0
	var first error
	for k := range nets {
		if !sameSols(out[k], w.ref[b][k]) {
			bad++
			if first == nil {
				first = fmt.Errorf("net %d: frontier %v, first pass %v", k, sols(out[k]), w.ref[b][k])
			}
		}
	}
	return bad, first
}

// finish compares every first-pass frontier with the concrete
// Pareto-DW's: the symbolic table and the DP are independent algorithms
// for the same exact frontier.
func (w *smallNets) finish() (int, error) {
	bad := 0
	var first error
	for b, ref := range w.ref {
		for k, got := range ref {
			want, err := dw.FrontierSols(w.inputs[b][k], dw.DefaultOptions())
			if err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("table frontier %v, Pareto-DW %v", got, want)
			}
			if err != nil {
				bad++
				if first == nil {
					first = fmt.Errorf("batch %d net %d: %w", b, k, err)
				}
			}
		}
	}
	return bad, first
}

func (w *smallNets) qualityRequests() int    { return 1 }
func (w *smallNets) traceRequests() int      { return 16 }
func (w *smallNets) tailPercentile() float64 { return 75 }

func (w *smallNets) counters() map[string]float64 {
	d := statsSum(w.eng.Stats(), w.base, -1)
	return merge(engineCounters(d), lutCounters(w.table, w.tbase))
}

func (w *smallNets) traced(ctx context.Context, seed int64, tr *tracer, n int) ([][]pareto.Sol, error) {
	if err := w.setup(seed); err != nil {
		return nil, err
	}
	var out [][]pareto.Sol
	for i := 0; i < n; i++ {
		for _, net := range w.inputs[i%len(w.inputs)] {
			tr.unit++
			items, err := tracedNet(ctx, tr, w.table, nil, nil, net)
			if err != nil {
				return nil, err
			}
			out = append(out, sols(items))
		}
	}
	return out, nil
}

// ecoChurn replays revert-heavy edit streams on tracked nets of degree
// 16–32, one Handle.Reroute at a time: the same local search and window
// memo as a batch, plus precise invalidation and net-memo transports.
// Reroutes visit the nets round-robin. When the streams end, a fresh
// session tracks the same nets and replays the same streams, so every
// cycle of nets·steps reroutes is the same work and a faster program
// sees more cycles, not a different mix.
type ecoChurn struct {
	nets  int
	steps int

	table   *lut.Table
	cache   *core.SubCache
	session *eco.Session
	handles []*eco.Handle
	streams [][][]eco.Edit
	initial []tree.Net
	// samples are the reroutes verify kept for finish's scratch routes.
	samples []ecoSample
	sbase   eco.Stats
	cbase   [2]int64
	tbase   tableCounters
}

// scratchEvery is the sampling period of the from-scratch core.Route
// comparison, the ECO oracle: a full route per sample costs as much as a
// cold reroute, so sampling keeps the check's wall time small. It is
// prime to the net count, so the samples visit every net and step.
const scratchEvery = 17

type ecoSample struct {
	i   int
	net tree.Net
	out frontier
}

// ecoStream is the churn model: 30% of steps revert the latest live
// edit (an accept/reject loop), and 20% of the other edits insert or
// remove sinks. The revert share stays below one half so the median
// reroute is a full one, not the boundary between memo hits and routes.
func ecoStream(rng *rand.Rand, net tree.Net, steps int) [][]eco.Edit {
	return netgen.EditStream(rng, net, netgen.EditStreamOptions{
		Steps:             steps,
		EditsPerStep:      1 + net.Degree()/8,
		RevertPercent:     30,
		StructuralPercent: 20,
		Span:              100000,
		MaxOffset:         500,
	})
}

func (w *ecoChurn) setup(seed int64) error {
	*w = ecoChurn{nets: w.nets, steps: w.steps}
	t, err := newTable()
	if err != nil {
		return err
	}
	w.table = t
	rng := rand.New(rand.NewSource(seed))
	w.initial = make([]tree.Net, w.nets)
	w.streams = make([][][]eco.Edit, w.nets)
	for k := range w.initial {
		deg := 16 + k*16/max(1, w.nets-1)
		w.initial[k] = netgen.ClusteredDriver(rng, deg, 100000, 4000)
		w.streams[k] = ecoStream(rng, w.initial[k], w.steps)
	}
	return w.track()
}

// track starts a fresh window memo and session, tracks the initial nets
// on the workers, as engine.Track does, and takes the counters' bases.
func (w *ecoChurn) track() error {
	w.cache = core.NewSubCache(0)
	var err error
	w.session, err = eco.NewSession(core.Options{Table: w.table, Cache: w.cache})
	if err != nil {
		return err
	}
	// The session is safe for concurrent use and each slot is written
	// once.
	w.handles = make([]*eco.Handle, w.nets)
	err = pool.Each(context.Background(), w.nets, workers, func(_, k int) error {
		h, err := w.session.Track(context.Background(), w.initial[k])
		if err != nil {
			return fmt.Errorf("track net %d: %w", k, err)
		}
		w.handles[k] = h
		return nil
	})
	if err != nil {
		return err
	}
	w.sbase = w.session.Stats()
	w.cbase[0], w.cbase[1] = w.cache.Counters()
	w.tbase = readTable(w.table)
	return nil
}

// prepare starts the next cycle on a fresh session when the streams end.
// The layers' counters then restart too; traced prefixes stay within the
// first cycle.
func (w *ecoChurn) prepare(i int) error {
	if i == 0 || i%(w.nets*w.steps) != 0 {
		return nil
	}
	return w.track()
}

func (w *ecoChurn) edits(i int) (*eco.Handle, []eco.Edit) {
	k, s := i%w.nets, i/w.nets%w.steps
	return w.handles[k], w.streams[k][s]
}

func (w *ecoChurn) request(ctx context.Context, i int) ([]tree.Net, []frontier, error) {
	h, edits := w.edits(i)
	items, err := h.Reroute(ctx, edits)
	return []tree.Net{h.Net()}, []frontier{items}, err
}

// verify keeps every scratchEvery-th reroute for finish.
func (w *ecoChurn) verify(i int, nets []tree.Net, out []frontier) (int, error) {
	if i%scratchEvery == 0 {
		w.samples = append(w.samples, ecoSample{i, nets[0], out[0]})
	}
	return 0, nil
}

// finish compares the kept reroutes with a from-scratch core.Route of
// the post-edit net (no shared caches): the incremental result must be
// byte-identical.
func (w *ecoChurn) finish() (int, error) {
	bad := 0
	var first error
	for _, s := range w.samples {
		want, err := core.Route(s.net, core.Options{Table: w.table})
		if err == nil && !sameFrontier(s.out, want) {
			err = fmt.Errorf("reroute frontier %v differs from scratch route %v", sols(s.out), sols(want))
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("request %d: %w", s.i, err)
			}
		}
	}
	w.samples = nil
	return bad, first
}

func (w *ecoChurn) validate(int) bool       { return true }
func (w *ecoChurn) qualityRequests() int    { return 64 }
func (w *ecoChurn) traceRequests() int      { return 96 }
func (w *ecoChurn) tailPercentile() float64 { return 85 }

func (w *ecoChurn) counters() map[string]float64 {
	s := w.session.Stats()
	h, m := w.cache.Counters()
	hits, full := float64(s.EcoHits-w.sbase.EcoHits), float64(s.FullReroutes-w.sbase.FullReroutes)
	reroutes := float64(s.Reroutes - w.sbase.Reroutes)
	return merge(map[string]float64{
		"eco.memo_hit_ratio":             ratio(hits, hits+full),
		"eco.invalidations_per_reroute":  ratio(float64(s.CacheInvalidations-w.sbase.CacheInvalidations), reroutes),
		"eco.dirty_subtrees_per_reroute": ratio(float64(s.DirtySubtrees-w.sbase.DirtySubtrees), reroutes),
		"core.window_hit_ratio":          ratio(float64(h-w.cbase[0]), float64(h-w.cbase[0]+m-w.cbase[1])),
	}, lutCounters(w.table, w.tbase))
}

func (w *ecoChurn) traced(ctx context.Context, seed int64, tr *tracer, n int) ([][]pareto.Sol, error) {
	if err := w.setup(seed); err != nil {
		return nil, err
	}
	var out [][]pareto.Sol
	for i := 0; i < n; i++ {
		tr.unit++
		h, edits := w.edits(i)
		prev := h.Net()
		s0 := w.session.Stats()
		_, m0 := w.cache.Counters()
		name := "eco.memo"
		root := tr.begin(name, -1, false)
		items, err := h.Reroute(ctx, edits)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		out = append(out, sols(items))
		a := tr.begin("eco.apply", root, true)
		post, _, err := eco.Apply(prev, edits)
		tr.end(a)
		if err != nil {
			return nil, err
		}
		if w.session.Stats().FullReroutes == s0.FullReroutes {
			continue
		}
		tr.rename(root, "core.route")
		_, m1 := w.cache.Counters()
		// The session keeps its window trace private; a probe route of
		// the post-edit net on a fresh memo records the same windows
		// (routing never depends on cache state), and the session's
		// miss count says how many of them it solved.
		var st core.SubTrace
		if _, err := core.RouteContext(ctx, post, core.Options{Table: w.table, Cache: core.NewSubCache(0), Trace: &st}); err != nil {
			return nil, err
		}
		tr.windows += len(st.Windows)
		tr.routes++
		if err := tr.replayRoute(ctx, root, w.table, post, st.Windows, make(map[string]bool), int(m1-m0)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hugeNet routes clustered mega-nets of degree 1024–4096 one at a time
// through the engine's hierarchical method with two intra-net workers:
// the only workload that runs the partition and the ⊕ stitch.
type hugeNet struct {
	pool int

	table  *lut.Table
	eng    *engine.Engine
	base   engine.Stats
	tbase  tableCounters
	inputs []tree.Net
}

// hugeDegree spreads the nets over degrees 1024–4096 along the van der
// Corput sequence: any prefix of the requests covers the range evenly,
// and no two nearby requests share a degree, so per-net latencies form a
// continuous distribution whose median does not jump between clusters.
func hugeDegree(i int) int {
	var r uint32
	for b, k := 0, uint32(i); b < 16; b++ {
		r = r<<1 | (k>>b)&1
	}
	return 1024 + int(uint64(r)*3073>>16)
}

func (w *hugeNet) setup(seed int64) error {
	*w = hugeNet{pool: w.pool}
	t, err := newTable()
	if err != nil {
		return err
	}
	w.table = t
	rng := rand.New(rand.NewSource(seed))
	w.inputs = make([]tree.Net, w.pool)
	for i := range w.inputs {
		deg := hugeDegree(i)
		w.inputs[i] = netgen.MegaClustered(rng, deg, 1000000, deg/80+2, 30000)
	}
	if err := w.newEngine(); err != nil {
		return err
	}
	warm := netgen.MegaClustered(rand.New(rand.NewSource(seed)), 256, 100000, 4, 5000)
	if _, err := w.eng.RouteAll(context.Background(), []tree.Net{warm}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.base = w.eng.Stats()
	w.tbase = readTable(t)
	return nil
}

func (w *hugeNet) newEngine() error {
	var err error
	w.eng, err = engine.New(engine.Options{Method: "hier", Workers: workers, Table: w.table})
	return err
}

func (w *hugeNet) request(ctx context.Context, i int) ([]tree.Net, []frontier, error) {
	if i > 0 && i%len(w.inputs) == 0 {
		// The pool wrapped: a fresh engine keeps the window memo from
		// answering repeated nets.
		s := w.eng.Stats()
		if err := w.newEngine(); err != nil {
			return nil, nil, err
		}
		// The retired engine's counts leave Stats; lowering base keeps
		// Stats minus base cumulative.
		w.base = statsSum(w.base, s, -1)
	}
	nets := w.inputs[i%len(w.inputs) : i%len(w.inputs)+1]
	out, err := w.eng.RouteAll(ctx, nets)
	return nets, out, err
}

func (w *hugeNet) prepare(int) error                               { return nil }
func (w *hugeNet) verify(int, []tree.Net, []frontier) (int, error) { return 0, nil }
func (w *hugeNet) finish() (int, error)                            { return 0, nil }

// validate: the O(n·depth) tree.Validate walk costs about as much as the
// route on degree-4096 trees, so it runs on the quality prefix only.
func (w *hugeNet) validate(i int) bool     { return i < w.qualityRequests() }
func (w *hugeNet) qualityRequests() int    { return 64 }
func (w *hugeNet) traceRequests() int      { return 64 }
func (w *hugeNet) tailPercentile() float64 { return 85 }

func (w *hugeNet) counters() map[string]float64 {
	d := statsSum(w.eng.Stats(), w.base, -1)
	return merge(engineCounters(d), lutCounters(w.table, w.tbase))
}

func (w *hugeNet) traced(ctx context.Context, seed int64, tr *tracer, n int) ([][]pareto.Sol, error) {
	if err := w.setup(seed); err != nil {
		return nil, err
	}
	cache := core.NewSubCache(0)
	var out [][]pareto.Sol
	for i := 0; i < n; i++ {
		tr.unit++
		items, err := tr.tracedHier(ctx, w.table, cache, w.inputs[i%len(w.inputs)])
		if err != nil {
			return nil, err
		}
		out = append(out, sols(items))
	}
	return out, nil
}
