package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// compareMain judges a change against its parent from two sets of
// untraced result files (the .bench_out/*-trace0.json records), paired
// by workload and seed:
//
//	perfbench compare PARENT_DIR CHANGE_DIR
//
// Per workload and end-to-end metric it prints each side's median and
// quartiles and a verdict. A gain needs the change to win at least nine
// tenths of the pairs (ties count for neither) and the medians to differ
// by more than the parent's interquartile distance. A regression is a
// change median worse than the parent's by more than the metric's bound.
// When the parent's own spread is wider than the bound the metric is
// unresolved, unless every change run beats every parent run. The bounds
// are read from BENCHMARK.json in the current directory, the repository
// root.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("want PARENT_DIR CHANGE_DIR, got %d arguments", len(args))
	}
	defs, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareRecords(defs, parent, change)
	if len(rows) == 0 {
		return fmt.Errorf("no workload and seed appears on both sides")
	}
	fmt.Printf("%-11s %-12s %5s %28s %28s %6s  %s\n", "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		fmt.Printf("%-11s %-12s %5d %28s %28s %6s  %s\n", r.workload, r.metric, r.pairs,
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.parent[0], r.parent[1], r.parent[2]),
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.change[0], r.change[1], r.change[2]),
			fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
	}
	return nil
}

func readBounds(path string) ([]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readRecords loads the untraced result records in dir, keyed by
// workload and seed.
func readRecords(dir string) (map[string]map[int64]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[int64]record{}
		}
		out[r.Workload][r.Seed] = r
	}
	return out, nil
}

type compareRow struct {
	workload, metric string
	pairs, wins      int
	parent, change   [3]float64 // median, q1, q3
	verdict          string
}

func compareRecords(defs []metricDef, parent, change map[string]map[int64]record) []compareRow {
	var rows []compareRow
	workloads := make([]string, 0, len(parent))
	for w := range parent {
		workloads = append(workloads, w)
	}
	slices.Sort(workloads)
	for _, w := range workloads {
		var seeds []int64
		for s := range parent[w] {
			if _, ok := change[w][s]; ok {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			continue
		}
		slices.Sort(seeds)
		var failedParent, failedChange int64
		for _, s := range seeds {
			failedParent += parent[w][s].Failed
			failedChange += change[w][s].Failed
		}
		for _, d := range defs {
			var a, b []float64
			for _, s := range seeds {
				a = append(a, parent[w][s].Metrics[d.Name].Value)
				b = append(b, change[w][s].Metrics[d.Name].Value)
			}
			r := judge(w, d, a, b)
			if failedChange > failedParent && r.verdict == "gain" {
				r.verdict = fmt.Sprintf("no gain: %d failed units against the parent's %d", failedChange, failedParent)
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// judge applies the decision rule to one metric's paired runs.
func judge(workload string, d metricDef, parent, change []float64) compareRow {
	sign := 1.0 // positive when larger is better
	if d.Better == "lower" {
		sign = -1
	}
	r := compareRow{workload: workload, metric: d.Name, pairs: len(parent)}
	for i := range parent {
		if sign*(change[i]-parent[i]) > 0 {
			r.wins++
		}
	}
	pm, cm := median(parent), median(change)
	pq1, pq3 := quartiles(parent)
	cq1, cq3 := quartiles(change)
	r.parent = [3]float64{pm, pq1, pq3}
	r.change = [3]float64{cm, cq1, cq3}
	iqr := math.Abs(pq3 - pq1)
	worse := -sign * (cm - pm) / math.Abs(pm)
	allBetter := slices.Min(change) > slices.Max(parent)
	if sign < 0 {
		allBetter = slices.Max(change) < slices.Min(parent)
	}
	switch {
	case 10*r.wins >= 9*r.pairs && math.Abs(cm-pm) > iqr && sign*(cm-pm) > 0:
		r.verdict = "gain"
	case worse > d.Bound:
		r.verdict = fmt.Sprintf("regression (%.1f%% worse, bound %.0f%%)", 100*worse, 100*d.Bound)
	case spread(parent) > d.Bound && !allBetter:
		r.verdict = fmt.Sprintf("unresolved (parent spread %.1f%% > bound %.0f%%)", 100*spread(parent), 100*d.Bound)
	default:
		r.verdict = "no regression"
	}
	if r.pairs < 10 {
		r.verdict += fmt.Sprintf(" [only %d pairs; the rule wants 10]", r.pairs)
	}
	return r
}
