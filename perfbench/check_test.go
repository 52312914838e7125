package main

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/geom"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// routed returns a net whose exact frontier has at least three points.
func routed(t *testing.T) (tree.Net, frontier) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for {
		net := netgen.ClusteredDriver(rng, 7, 100000, 4000)
		items, err := core.Route(net, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) >= 3 {
			return net, items
		}
	}
}

func clone(items frontier) frontier {
	out := make(frontier, len(items))
	for i, it := range items {
		out[i] = pareto.Item[*tree.Tree]{Sol: it.Sol, Val: it.Val.Clone()}
	}
	return out
}

func TestCheckFrontierCatchesCorruption(t *testing.T) {
	net, items := routed(t)
	if err := checkFrontier(net, items, true); err != nil {
		t.Fatalf("valid frontier rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(f frontier) frontier
		want    string
	}{
		{"empty", func(frontier) frontier { return nil }, "empty"},
		{"wrong wirelength", func(f frontier) frontier { f[1].Sol.W++; return f }, "measures"},
		{"wrong delay", func(f frontier) frontier { f[0].Sol.D--; return f }, "measures"},
		{"unsorted", func(f frontier) frontier { f[0], f[1] = f[1], f[0]; return f }, "non-dominated"},
		{"dominated duplicate", func(f frontier) frontier { return append(f[:2:2], f[1]) }, "non-dominated"},
		{"moved pin", func(f frontier) frontier {
			tr := f[0].Val
			for i, nd := range tr.Nodes {
				if nd.Pin == 1 {
					tr.Nodes[i].P = tr.Nodes[i].P.Add(geom.Pt(1, 0))
				}
			}
			return f
		}, "claims pin"},
		{"cycle", func(f frontier) frontier {
			tr := f[0].Val
			for i := range tr.Nodes {
				if i != tr.Root && tr.Parent[i] != tr.Root {
					tr.Parent[tr.Parent[i]] = i
					break
				}
			}
			return f
		}, "root"},
	} {
		err := checkFrontier(net, c.corrupt(clone(items)), true)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// An inexact frontier passes the structural checks; only the
// independent Pareto-DW oracle catches it.
func TestSmallNetsOracleCatchesInexactFrontier(t *testing.T) {
	w := &smallNets{batchNets: 64, batches: 1}
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	nets, out, err := w.request(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Replace a frontier by the star tree: a valid routing tree with its
	// true (W, D), but not the exact frontier.
	k := -1
	for i, net := range nets {
		star := tree.Star(net)
		sol, err := recompute(net, star)
		if err != nil {
			t.Fatal(err)
		}
		if len(out[i]) != 1 || out[i][0].Sol != sol {
			out[i], k = frontier{{Sol: sol, Val: star}}, i
			break
		}
	}
	if k < 0 {
		t.Fatal("every net's frontier is its star tree")
	}
	if err := checkFrontier(nets[k], out[k], true); err != nil {
		t.Fatalf("structural check should pass the star tree: %v", err)
	}
	if bad, err := w.verify(0, nets, out); bad != 0 {
		t.Fatalf("first pass: %d bad units (%v), want 0 before finish", bad, err)
	}
	bad, err := w.finish()
	if bad != 1 || err == nil {
		t.Fatalf("finish found %d bad units (%v), want 1", bad, err)
	}
	// A later pass must reproduce the first pass.
	_, good, err := w.request(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := w.verify(1, nets, good); bad != 1 {
		t.Fatalf("later pass: %d bad units, want 1", bad)
	}
}

func TestEcoOracleCatchesDifferentTree(t *testing.T) {
	w := &ecoChurn{nets: 2, steps: 2}
	if err := w.setup(5); err != nil {
		t.Fatal(err)
	}
	nets, out, err := w.request(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.verify(0, nets, out)
	if bad, err := w.finish(); bad != 0 {
		t.Fatalf("correct reroute rejected: %v", err)
	}
	// Same objective vectors, different tree: the oracle compares trees
	// byte for byte, not only the Sols.
	other := clone(out[0])
	tr := other[0].Val
	tr.Nodes = append(tr.Nodes, tree.Node{P: tr.Nodes[tr.Root].P, Pin: -1})
	tr.Parent = append(tr.Parent, tr.Root)
	if err := checkFrontier(nets[0], other, true); err != nil {
		t.Fatalf("the altered tree should still be a valid frontier: %v", err)
	}
	w.verify(0, nets, []frontier{other})
	if bad, _ := w.finish(); bad != 1 {
		t.Fatal("a frontier differing from the scratch route was accepted")
	}
}

// When the edit streams end, a fresh session replays them: every cycle
// returns the same frontiers.
func TestEcoCyclesRepeat(t *testing.T) {
	w := &ecoChurn{nets: 2, steps: 2}
	if err := w.setup(5); err != nil {
		t.Fatal(err)
	}
	cycle := w.nets * w.steps
	var first []frontier
	for i := 0; i < 2*cycle; i++ {
		if err := w.prepare(i); err != nil {
			t.Fatal(err)
		}
		_, out, err := w.request(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if i < cycle {
			first = append(first, out[0])
		} else if !sameFrontier(out[0], first[i-cycle]) {
			t.Fatalf("request %d differs from request %d of the first cycle", i, i-cycle)
		}
	}
}

// inputs returns everything a workload generated from its seed.
func inputs(w workload) any {
	switch w := w.(type) {
	case *iccadMix:
		return w.inputs
	case *smallNets:
		return w.inputs
	case *ecoChurn:
		return []any{w.initial, w.streams}
	case *hugeNet:
		return w.inputs
	}
	return nil
}

// tiny returns each workload at a size a unit test can route.
func tiny() map[string]workload {
	return map[string]workload{
		"iccad-mix":  &iccadMix{designNets: 12, designs: 2},
		"small-nets": &smallNets{batchNets: 256, batches: 2},
		"eco-churn":  &ecoChurn{nets: 2, steps: 4},
		"huge-net":   &hugeNet{pool: 2},
	}
}

// prefixDigest routes a workload's first n requests and digests them.
func prefixDigest(t *testing.T, w workload, n int) string {
	t.Helper()
	dg := newDigest()
	for i := 0; i < n; i++ {
		_, out, err := w.request(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out {
			dg.add(f)
		}
	}
	return dg.sum()
}

func TestSameSeedSameInputsAndDigest(t *testing.T) {
	for name, w := range tiny() {
		t.Run(name, func(t *testing.T) {
			if err := w.setup(11); err != nil {
				t.Fatal(err)
			}
			in1 := inputs(w)
			d1 := prefixDigest(t, w, 2)
			if err := w.setup(11); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(in1, inputs(w)) {
				t.Fatal("the same seed generated different inputs")
			}
			if d2 := prefixDigest(t, w, 2); d1 != d2 {
				t.Fatalf("the same seed gave digests %s and %s", d1, d2)
			}
			if err := w.setup(12); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(in1, inputs(w)) {
				t.Fatal("another seed generated the same inputs")
			}
		})
	}
}

// The iccad-mix designs carry the same degree histogram for every seed.
func TestICCADDesignComposition(t *testing.T) {
	hist := func(seed int64) map[int]int {
		h := map[int]int{}
		for _, n := range iccadDesign(seed, 48) {
			h[n.Degree()]++
		}
		return h
	}
	a, b := hist(1), hist(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("degree histograms differ: %v vs %v", a, b)
	}
	if a[4] < a[9] || a[9] == 0 {
		t.Fatalf("histogram does not follow the mix: %v", a)
	}
}
