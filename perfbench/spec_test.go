package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"patlabor/internal/dw"
	"patlabor/internal/netgen"
)

// BENCHMARK.json at the repository root declares the metrics this
// command prints; the two must not drift apart.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n go   %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n go   %v", spec.PerLayer, perLayer)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if _, ok := crossChecked[w.Name]; !ok {
			t.Errorf("workload %s has no pprof cross-check entry", w.Name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "perfbench" || len(spec.Command) != 2 || spec.Command[1] != "perfbench/run.sh" {
		t.Errorf("command %v / paths %v do not name this directory", spec.Command, spec.Paths)
	}
}

// A replayed split that drifts from the sampled one fails the traced run.
func TestCrossCheckBound(t *testing.T) {
	sampled := map[string]float64{"dw": 0.80, "rsmt": 0.12, "lut": 0.004}
	near := map[string]float64{"dw": 0.85, "rsmt": 0.10, "lut": 0.001}
	if gap, err := crossCheck("iccad-mix", sampled, near); err != nil || gap > crossCheckBound {
		t.Fatalf("agreeing shares: gap %v, %v", gap, err)
	}
	far := map[string]float64{"dw": 0.80, "rsmt": 0.30, "lut": 0.004}
	gap, err := crossCheck("iccad-mix", sampled, far)
	if err == nil || gap <= crossCheckBound {
		t.Fatalf("rsmt gap of 0.18 accepted: gap %v, %v", gap, err)
	}
	// Layers outside the workload's cross-check do not count.
	if _, err := crossCheck("huge-net", sampled, far); err != nil {
		t.Fatalf("huge-net checks hier_stitch only: %v", err)
	}
}

// A profile of a busy Pareto-DW attributes nearly all program samples to
// the dw layer.
func TestProfileShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		if _, err := dw.FrontierSols(netgen.Uniform(rng, 8, 1000), dw.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	if shares["dw"] < 0.9 || shares["lut"] > 0.1 || shares["hier_stitch"] != 0 {
		t.Fatalf("shares %v over %d samples, want nearly all dw", shares, samples)
	}
}
