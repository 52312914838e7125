package tree_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/hier"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/tree"
)

// graftedTrees builds the trees hier's ⊕ stitch Steinerizes for one
// degree-deg mega-clustered net (the BenchmarkHugeNet instance): hier's
// default partition, one exact window frontier per multi-pin cluster, the
// hierarchical top-level frontier over the ports, and then, for up to
// count top-level trees, a clone relabelled into the net's pin frame with
// one frontier pick per cluster grafted at its port. Picks are drawn from
// rng, so the trees differ in their clusters, not just their tops.
func graftedTrees(tb testing.TB, rng *rand.Rand, deg, count int) []*tree.Tree {
	tb.Helper()
	net := netgen.MegaClustered(rand.New(rand.NewSource(int64(3000+deg))), deg, 1000000, deg/80+2, 30000)
	ctx := context.Background()
	clusters := hier.Partition(net, max(hier.MinClusterSize, lut.Default().MaxCovered(core.DefaultLambda)))
	ports := make([]int, len(clusters))
	fronts := make([][]*tree.Tree, len(clusters))
	topPins := []int{0}
	for i, cl := range clusters {
		ports[i] = hier.Port(net, cl)
		topPins = append(topPins, ports[i])
		if len(cl) == 1 {
			continue
		}
		pins := []int{ports[i]}
		for _, p := range cl {
			if p != ports[i] {
				pins = append(pins, p)
			}
		}
		items, err := core.WindowFrontier(ctx, net, pins, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		for _, it := range items {
			fronts[i] = append(fronts[i], it.Val)
		}
	}
	top := tree.Net{}
	for _, p := range topPins {
		top.Pins = append(top.Pins, net.Pins[p])
	}
	tops, err := hier.Route(top, hier.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var out []*tree.Tree
	for _, it := range tops[:min(count, len(tops))] {
		t := it.Val.Clone()
		if err := t.RelabelPins(topPins); err != nil {
			tb.Fatal(err)
		}
		portNode := make(map[int]int)
		for i, nd := range t.Nodes {
			if nd.Pin > 0 {
				portNode[nd.Pin] = i
			}
		}
		for ci, front := range fronts {
			if front != nil {
				t.Graft(front[rng.Intn(len(front))], portNode[ports[ci]])
			}
		}
		if err := t.Validate(net); err != nil {
			tb.Fatal(err)
		}
		out = append(out, t)
	}
	return out
}

func sameNodes(got, want *tree.Tree) error {
	if got.Root != want.Root || len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("root %d of %d nodes, want root %d of %d",
			got.Root, len(got.Nodes), want.Root, len(want.Nodes))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] || got.Parent[i] != want.Parent[i] {
			return fmt.Errorf("node %d = %+v parent %d, want %+v parent %d",
				i, got.Nodes[i], got.Parent[i], want.Nodes[i], want.Parent[i])
		}
	}
	return nil
}

// TestGraftedSteinerizeMatchesReference is the stitch-sized differential:
// grafted trees of degree 1024–4096 built exactly as hier's ⊕ stitch
// builds them must Steinerize and Compact byte for byte as the reference
// rescans do.
func TestGraftedSteinerizeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("routes degree-1024–4096 nets")
	}
	rng := rand.New(rand.NewSource(13))
	ev, ref := tree.NewEvaluator(), tree.NewEvaluator()
	for _, deg := range []int{1024, 2048, 4096} {
		for k, g := range graftedTrees(t, rng, deg, 3) {
			got, want := g.Clone(), g.Clone()
			got.SteinerizeWith(ev)
			tree.RefSteinerizeWith(want, ref)
			if err := sameNodes(got, want); err != nil {
				t.Fatalf("degree %d tree %d (%d nodes): Steinerize: %v", deg, k, g.Len(), err)
			}
			got, want = g.Clone(), g.Clone()
			got.CompactWith(ev)
			tree.RefCompactWith(want, ref)
			if err := sameNodes(got, want); err != nil {
				t.Fatalf("degree %d tree %d (%d nodes): Compact: %v", deg, k, g.Len(), err)
			}
		}
	}
}

// BenchmarkSteinerizeGrafted times the stitch's clean-up layer alone:
// SteinerizeWith (greedy moves plus the trailing Compact) on one
// degree-4096 grafted tree, the shape hier materializes per surviving
// combination.
func BenchmarkSteinerizeGrafted(b *testing.B) {
	g := graftedTrees(b, rand.New(rand.NewSource(1)), 4096, 1)[0]
	ev := tree.NewEvaluator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := g.Clone()
		b.StartTimer()
		t.SteinerizeWith(ev)
	}
}
