// Command perfbench is PatLabor's standing benchmark. One run drives one
// workload in a closed loop for a fixed time, checks every output outside
// the timed region, and prints its end-to-end metrics as the last line of
// standard output:
//
//	perfbench --workload iccad-mix --seed 1 --seconds 12 --trace 0
//
// With --trace 1 it instead runs a fixed prefix of the workload twice —
// once as the workload runs, under a CPU profile, and once calling each
// layer from the benchmark with spans around the calls — and prints the
// per-layer metrics; the prefix, not --seconds, sets that run's length. perfbench compare judges two sets of result files
// (see compare.go). Build and run it through run.sh from the repository
// root; results, spans and profiles go to .bench_out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; BENCHMARK.json carries the same table.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the router sees; every workload
// reports all of them. A request is one caller-visible call: a RouteAll
// batch (iccad-mix, small-nets), a Reroute (eco-churn), a huge net's
// RouteAll (huge-net). Failed and incorrect units are the result's
// `failed` over `attempted` and need no metric of their own.
//
// The times — setup_s, nets_per_s, p50_ms, tail_ms — are scaled to a
// host of reference speed (calibrate.go), so runs minutes apart on a
// shared host compare; the record keeps their wall-clock values. Each
// request is scaled by the calibrations around it. The set-ups are
// scaled by the whole run's calibrations: scaled by the few around them
// instead, small-nets' set-up times spread 0.25–0.35 between runs, and
// unscaled, eco-churn's median set-up doubled when the host got busier.
//
// Memory is the heap the router holds once the quality prefix is served
// — caches, the session and the last results reachable — after a forced
// collection. The process's peak RSS is not used: it is set by where the
// collector happens to run, and moved by 37–61% between seeds on a
// shared two-core VM.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"nets_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"hv_norm", "ratio", "higher", 0.10},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by the module they
// describe. Times are seconds over the fixed traced prefix; counters
// come from the layers' public Stats and Counters over the same prefix.
// engine.parallel_eff is the pool's Busy over Elapsed·workers: huge-net
// hands the engine one net per batch, so there it reads about 1/workers
// and the intra-net fan-out shows in hier's times instead.
var perLayer = []metricDef{
	{Name: "engine.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "engine.dedup_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hanan.key_s", Unit: "s", Better: "lower"},
	{Name: "lut.query_calls", Unit: "count", Better: "lower"},
	{Name: "lut.query_s", Unit: "s", Better: "lower"},
	{Name: "lut.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lut.materialized_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dw.window_calls", Unit: "count", Better: "lower"},
	{Name: "dw.window_s", Unit: "s", Better: "lower"},
	{Name: "dw.small_calls", Unit: "count", Better: "lower"},
	{Name: "dw.small_s", Unit: "s", Better: "lower"},
	{Name: "core.route_s", Unit: "s", Better: "lower"},
	{Name: "core.search_self_s", Unit: "s", Better: "lower"},
	{Name: "core.window_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.windows_per_net", Unit: "count", Better: "lower"},
	{Name: "rsmt.tree_calls", Unit: "count", Better: "lower"},
	{Name: "rsmt.tree_s", Unit: "s", Better: "lower"},
	{Name: "hier.partition_s", Unit: "s", Better: "lower"},
	{Name: "hier.clusters", Unit: "count", Better: "lower"},
	{Name: "hier.window_s", Unit: "s", Better: "lower"},
	{Name: "hier.top_s", Unit: "s", Better: "lower"},
	{Name: "hier.stitch_s", Unit: "s", Better: "lower"},
	{Name: "eco.apply_s", Unit: "s", Better: "lower"},
	{Name: "eco.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "eco.invalidations_per_reroute", Unit: "count", Better: "lower"},
	{Name: "eco.dirty_subtrees_per_reroute", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_mb_per_unit", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "replay.dw_share", Unit: "ratio", Better: "lower"},
	{Name: "replay.rsmt_share", Unit: "ratio", Better: "lower"},
	{Name: "replay.lut_share", Unit: "ratio", Better: "lower"},
	{Name: "replay.hier_stitch_share", Unit: "ratio", Better: "lower"},
	{Name: "pprof.dw_share", Unit: "ratio", Better: "lower"},
	{Name: "pprof.rsmt_share", Unit: "ratio", Better: "lower"},
	{Name: "pprof.lut_share", Unit: "ratio", Better: "lower"},
	{Name: "pprof.hier_stitch_share", Unit: "ratio", Better: "lower"},
	{Name: "pprof.max_gap", Unit: "ratio", Better: "lower"},
}

// A run sets up at least minSetups times, and again while the set-ups
// add up to less than setupBudgetS, at most maxSetups times; setup_s is
// the median. A set-up of a fraction of a second is so sampled often
// enough that one slow moment of the host does not set the figure.
const (
	minSetups    = 2
	maxSetups    = 15
	setupBudgetS = 3.0
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result file under .bench_out: the printed result plus what
// a reader needs to judge it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
	Requests        int                `json:"requests"`
	QualityRequests int                `json:"quality_requests,omitempty"`
	QualityUnits    int                `json:"quality_units,omitempty"`
	TailPct         float64            `json:"tail_percentile,omitempty"`
	TailBeyond      int                `json:"tail_beyond,omitempty"`
	Digest          string             `json:"digest"`
	FirstErr        string             `json:"first_error,omitempty"`
	Extra           map[string]float64 `json:"extra,omitempty"`
	Setups          int                `json:"setups,omitempty"`
}

const outDir = ".bench_out"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: iccad-mix, small-nets, eco-churn or huge-net")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	rec, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds float64, traced bool) (*record, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	for total := 0.0; len(setups) < minSetups || total < setupBudgetS && len(setups) < maxSetups; {
		// Each set-up starts from a collected heap, so one set-up's
		// garbage is not collected on the next one's clock.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		total += d
	}
	rec := &record{Workload: name, Seed: seed, Trace: traced, Setups: len(setups)}
	if traced {
		err = runTraced(w, rec)
	} else {
		err = runTimed(w, rec, seconds, median(setups))
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, btoi(traced)))
	if err := writeJSON(path, rec); err != nil {
		return nil, err
	}
	report(os.Stderr, rec)
	return rec, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tally accumulates checked units.
type tally struct {
	attempted, failed int64
	first             error
}

func (t *tally) fail(n int, err error) {
	t.failed += int64(n)
	if t.first == nil && err != nil {
		t.first = err
	}
}

// checkRequest runs the generic frontier checks and the workload's own
// oracle on one request's outputs.
func checkRequest(w workload, i int, nets []tree.Net, out []frontier, t *tally) {
	t.attempted += int64(len(nets))
	if len(out) != len(nets) {
		t.fail(len(nets), fmt.Errorf("request %d: %d results for %d nets", i, len(out), len(nets)))
		return
	}
	bad := 0
	for k := range nets {
		if err := checkFrontier(nets[k], out[k], w.validate(i)); err != nil {
			bad++
			if t.first == nil {
				t.first = fmt.Errorf("request %d net %d: %w", i, k, err)
			}
		}
	}
	t.fail(bad, nil)
	n, err := w.verify(i, nets, out)
	if err != nil {
		err = fmt.Errorf("request %d: %w", i, err)
	}
	t.fail(n, err)
}

// finishChecks runs the oracles the workload deferred to the end.
func finishChecks(w workload, t *tally) {
	n, err := w.finish()
	if err != nil {
		err = fmt.Errorf("deferred check: %w", err)
	}
	t.fail(n, err)
}

// runTimed is the closed loop: requests back to back until the measured
// wall time reaches seconds, and at least through the quality prefix;
// checks and quality scoring run between requests, outside the measured
// time, and so does a calibration of the host's speed just before each
// request, by which the times are scaled after the loop (calibrate.go).
// The heap is collected once before the loop and then left to the
// runtime, so requests pay for their own garbage collection as they
// would in a router; the checks reuse their buffers and defer their
// costly oracles to finish, so the garbage they add is small. The one
// other forced collection is liveHeapMB's, after the quality prefix.
func runTimed(w workload, rec *record, seconds, setup float64) error {
	ctx := context.Background()
	var lat, units []float64
	var measured, liveMB float64
	var t tally
	var hv []float64
	dg := newDigest()
	// cal[i] is the calibration just before request i; the last one
	// follows the loop.
	var cal []float64
	runtime.GC()
	for i := 0; measured < seconds || i < w.qualityRequests(); i++ {
		if err := w.prepare(i); err != nil {
			return fmt.Errorf("prepare request %d: %w", i, err)
		}
		cal = append(cal, calibrate())
		t0 := time.Now()
		in, out, err := w.request(ctx, i)
		d := time.Since(t0).Seconds()
		rec.Requests++
		if err != nil {
			// A failed request fails the run; the loop stops so a broken
			// program cannot spin through the rest of the time.
			t.attempted += int64(max(1, len(in)))
			t.fail(max(1, len(in)), fmt.Errorf("request %d: %w", i, err))
			break
		}
		measured += d
		lat = append(lat, d*1000)
		units = append(units, float64(len(in)))
		if i == w.qualityRequests()-1 {
			liveMB = liveHeapMB()
		}
		checkRequest(w, i, in, out, &t)
		if i < w.qualityRequests() {
			for k := range in {
				hv = append(hv, hvNorm(in[k], out[k]))
				dg.add(out[k])
			}
		}
	}
	cal = append(cal, calibrate())
	finishChecks(w, &t)
	rec.Attempted, rec.Failed = t.attempted, t.failed
	if t.first != nil {
		rec.FirstErr = t.first.Error()
	}
	rec.Digest = dg.sum()
	rec.QualityRequests = w.qualityRequests()
	if len(lat) == 0 {
		return fmt.Errorf("no request completed: %s", rec.FirstErr)
	}
	rec.TailPct = w.tailPercentile()
	wall := slices.Clone(lat)
	for i := range lat {
		lat[i] *= hostScale(cal, i)
	}
	tl, beyond := tail(lat, rec.TailPct)
	rec.TailBeyond = beyond
	wallTail, _ := tail(wall, rec.TailPct)
	rec.Extra = map[string]float64{
		"wall.nets_per_s": rate(wall, units),
		"wall.p50_ms":     median(wall),
		"wall.tail_ms":    wallTail,
		"wall.setup_s":    setup,
		"host.speed":      refCalibrationS / median(cal),
	}
	rec.QualityUnits = len(hv)
	var hvMean float64
	for _, v := range hv {
		hvMean += v / float64(len(hv))
	}
	rec.Metrics = map[string]metricValue{}
	for _, m := range endToEnd {
		var v float64
		switch m.Name {
		case "setup_s":
			v = setup * rec.Extra["host.speed"]
		case "nets_per_s":
			v = rate(lat, units)
		case "p50_ms":
			v = median(lat)
		case "tail_ms":
			v = tl
		case "hv_norm":
			v = hvMean
		case "live_heap_mb":
			v = liveMB
		}
		rec.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return nil
}

// rate is units per second over the requests' summed latencies.
func rate(latMs, units []float64) float64 {
	var t, u float64
	for i := range latMs {
		t += latMs[i]
		u += units[i]
	}
	return 1000 * u / t
}

// liveHeapMB collects and returns the bytes of live heap objects, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runTraced measures the fixed traced prefix twice. First the workload
// runs as it does untraced, under a CPU profile, for the layers'
// counters, the allocation figures and the sampled split. Then the
// prefix runs again through the benchmark's own layer calls, with spans,
// for the replayed split. Both passes cover the same requests, so the
// sampled and replayed splits describe the same work; each prefix is
// long enough for a profile of several thousand samples. Both passes'
// outputs are checked, and the second must reproduce the first.
func runTraced(w workload, rec *record) error {
	ctx := context.Background()
	n := w.traceRequests()
	base := fmt.Sprintf("%s-seed%d", rec.Workload, rec.Seed)
	profPath := filepath.Join(outDir, base+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var t tally
	var want [][]pareto.Sol
	var units int64
	type output struct {
		nets []tree.Net
		out  []frontier
	}
	var prefix []output
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := w.prepare(i); err != nil {
			pprof.StopCPUProfile()
			pf.Close()
			return fmt.Errorf("prepare request %d: %w", i, err)
		}
		in, out, err := w.request(ctx, i)
		if err != nil {
			pprof.StopCPUProfile()
			pf.Close()
			return fmt.Errorf("request %d: %w", i, err)
		}
		prefix = append(prefix, output{in, out})
	}
	untraced := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	counters := w.counters()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}
	for i, p := range prefix {
		checkRequest(w, i, p.nets, p.out, &t)
		for _, o := range p.out {
			want = append(want, sols(o))
		}
		units += int64(len(p.nets))
	}
	finishChecks(w, &t)
	prefix = nil

	tr := newTracer()
	t1 := time.Now()
	got, err := w.traced(ctx, rec.Seed, tr, n)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	tracedSecs := time.Since(t1).Seconds()
	if len(got) != len(want) {
		t.fail(len(want), fmt.Errorf("traced pass routed %d units, untraced %d", len(got), len(want)))
	} else {
		for k := range got {
			if !slices.Equal(got[k], want[k]) {
				t.fail(1, fmt.Errorf("unit %d: traced frontier %v, untraced %v", k, got[k], want[k]))
			}
		}
	}
	if err := tr.write(filepath.Join(outDir, base+".spans.json")); err != nil {
		return err
	}
	lt := tr.aggregate()
	// A layer the workload never reaches reads zero.
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	merge(m, counters)
	merge(m, lt.metrics(tr))
	m["runtime.alloc_mb_per_unit"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(units)
	m["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	// The traced pass runs serially and re-executes every replayed
	// layer, so this is the price of the split, not of the spans alone.
	m["trace.overhead_ratio"] = tracedSecs / untraced
	sampled, samples, err := profileShares(profPath)
	if err != nil {
		return err
	}
	rec.Extra = map[string]float64{"pprof.samples": float64(samples)}
	for layer, v := range sampled {
		m["pprof."+layer+"_share"] = v
	}
	// The cross-check is one more checked unit of the traced run.
	gap, err := crossCheck(rec.Workload, sampled, lt.replayShares())
	m["pprof.max_gap"] = gap
	t.attempted++
	t.fail(btoi(err != nil), err)
	for layer, v := range lt.split() {
		rec.Extra["split."+layer] = ratio(v, lt.root)
	}
	rec.Attempted, rec.Failed = t.attempted, t.failed
	if t.first != nil {
		rec.FirstErr = t.first.Error()
	}
	rec.Requests = n
	rec.Metrics = map[string]metricValue{}
	for _, d := range perLayer {
		rec.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	if len(m) != len(perLayer) {
		return fmt.Errorf("measured %d per-layer metrics, %d are declared", len(m), len(perLayer))
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints the run for a human: every metric with its unit, the
// sample counts behind it, and the correctness tally.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed %d: %d units in %d requests, %d failed (failed_ratio %.4g)\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Requests, rec.Failed,
		ratio(float64(rec.Failed), float64(rec.Attempted)))
	if rec.Digest != "" {
		fmt.Fprintf(w, "  frontier digest of the first %d requests: %s\n", rec.QualityRequests, rec.Digest)
	}
	if rec.FirstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rec.FirstErr)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		note := ""
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", rec.Setups)
		case "nets_per_s":
			note = fmt.Sprintf("%d requests", rec.Requests)
		case "hv_norm":
			note = fmt.Sprintf("mean over the %d nets of the first %d requests", rec.QualityUnits, rec.QualityRequests)
		case "live_heap_mb":
			note = fmt.Sprintf("after request %d", rec.QualityRequests)
		case "p50_ms":
			note = fmt.Sprintf("%d requests", rec.Requests)
		case "tail_ms":
			note = fmt.Sprintf("p%g of %d requests, %d beyond", rec.TailPct, rec.Requests, rec.TailBeyond)
			if rec.TailBeyond < 10 {
				note += " (fewer than ten: the tail is thin)"
			}
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", d.Name, m.Value, d.Unit, note)
	}
	if rec.Extra != nil {
		keys := make([]string, 0, len(rec.Extra))
		for k := range rec.Extra {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-32s %14.6g\n", k, rec.Extra[k])
		}
	}
	if rec.Trace {
		fmt.Fprintf(w, "  pprof cross-check on %v: max gap %.3f (bound %.2f)\n",
			crossChecked[rec.Workload], rec.Metrics["pprof.max_gap"].Value, crossCheckBound)
	}
}
