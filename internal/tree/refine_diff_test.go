package tree

import (
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/geom"
)

// diffTree draws one tree for the Steinerize/Compact differentials. The
// shapes cover what the incremental passes must get exactly right: tied
// gains (small coordinate spans), duplicate points, high fan-out stars,
// Steiner chains (including co-located links), pins co-located with a
// Steiner parent, demoted pins, and roots at arbitrary node indices.
func diffTree(rng *rand.Rand, trial int) *Tree {
	// Sizes skew small, where the corner cases concentrate; pins plus the
	// Steiner nodes added below stay within 300 nodes.
	n := 2 + rng.Intn(1+rng.Intn(199))
	span := int64(1 + rng.Intn(2500))
	switch rng.Intn(4) {
	case 0:
		span = int64(1 + rng.Intn(12)) // dense ties and duplicates
	case 1:
		span = 4096
	}
	var net Net
	switch trial % 10 {
	case 0:
		// High fan-out: a star, kept smaller because the reference rescans
		// every child pair after every move.
		net = randomNet(rng, 2+rng.Intn(120), span)
	default:
		net = randomNet(rng, n, span)
	}
	for k := 0; k < net.Degree()/8; k++ {
		net.Pins[rng.Intn(net.Degree())] = net.Pins[rng.Intn(net.Degree())]
	}
	var t *Tree
	switch trial % 10 {
	case 0:
		t = Star(net)
	case 1, 2:
		// Hubs: every node attaches to one of a few early nodes.
		t = New(net.Pins[0], 0)
		hubs := 1 + rng.Intn(6)
		for i := 1; i < net.Degree(); i++ {
			t.Add(net.Pins[i], i, rng.Intn(min(hubs, t.Len())))
		}
	default:
		t = randomTopology(rng, net)
	}
	// Steiner chains: interpose runs of Steiner nodes above random nodes,
	// some at the child's or the parent's own position.
	for k := rng.Intn(t.Len()/4 + 1); k > 0; k-- {
		v := rng.Intn(t.Len())
		if v == t.Root {
			continue
		}
		for links := 1 + rng.Intn(2); links > 0; links-- {
			p := t.Parent[v]
			var at geom.Point
			switch rng.Intn(3) {
			case 0:
				at = t.Nodes[v].P
			case 1:
				at = t.Nodes[p].P
			default:
				at = geom.Pt(rng.Int63n(span), rng.Int63n(span))
			}
			s := t.Add(at, -1, p)
			t.Parent[v] = s
			v = s
		}
	}
	// Dangling Steiner leaves and demoted pins give Compact victims.
	for k := rng.Intn(4); k > 0; k-- {
		t.Add(geom.Pt(rng.Int63n(span), rng.Int63n(span)), -1, rng.Intn(t.Len()))
	}
	for i := range t.Nodes {
		if t.Nodes[i].Pin >= 1 && rng.Intn(10) == 0 {
			t.Nodes[i].Pin = -1
		}
	}
	return permuted(rng, t)
}

// permuted renumbers t's nodes by a random permutation, so the root and
// the scan order land anywhere.
func permuted(rng *rand.Rand, t *Tree) *Tree {
	perm := rng.Perm(t.Len())
	out := &Tree{Nodes: make([]Node, t.Len()), Parent: make([]int, t.Len()), Root: perm[t.Root]}
	for i, nd := range t.Nodes {
		out.Nodes[perm[i]] = nd
		if p := t.Parent[i]; p >= 0 {
			out.Parent[perm[i]] = perm[p]
		} else {
			out.Parent[perm[i]] = -1
		}
	}
	return out
}

func sameTree(got, want *Tree) error {
	if got.Root != want.Root {
		return fmt.Errorf("root %d, want %d", got.Root, want.Root)
	}
	if len(got.Nodes) != len(want.Nodes) || len(got.Parent) != len(want.Parent) {
		return fmt.Errorf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] || got.Parent[i] != want.Parent[i] {
			return fmt.Errorf("node %d = %+v parent %d, want %+v parent %d",
				i, got.Nodes[i], got.Parent[i], want.Nodes[i], want.Parent[i])
		}
	}
	return nil
}

// sameLoad checks the passes' postcondition: e is loaded with t, exactly
// as a fresh Load would leave it.
func sameLoad(e *Evaluator, t *Tree) error {
	f := NewEvaluator()
	f.Load(t)
	if len(e.Order()) != len(f.Order()) {
		return fmt.Errorf("loaded order has %d nodes, want %d", len(e.Order()), len(f.Order()))
	}
	for v := range t.Nodes {
		a, b := e.Children(v), f.Children(v)
		if len(a) != len(b) {
			return fmt.Errorf("node %d: loaded %d children, want %d", v, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				return fmt.Errorf("node %d: loaded children %v, want %v", v, a, b)
			}
		}
	}
	return nil
}

// TestSteinerizeCompactMatchReference replays Steinerize and Compact on
// 10⁴ seeded trees of 2–300 nodes and requires the incremental passes to
// reproduce the reference rescans byte for byte: same root, same nodes in
// the same slots, same parents. One evaluator serves every trial, so
// scratch reuse across sizes is covered too.
func TestSteinerizeCompactMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1013))
	ev, ref := NewEvaluator(), NewEvaluator()
	trials := 10000
	for trial := 0; trial < trials; trial++ {
		base := diffTree(rng, trial)

		got, want := base.Clone(), base.Clone()
		got.CompactWith(ev)
		want.refCompactWith(ref)
		if err := sameTree(got, want); err != nil {
			t.Fatalf("trial %d (%d nodes): Compact: %v", trial, base.Len(), err)
		}
		if err := sameLoad(ev, got); err != nil {
			t.Fatalf("trial %d: Compact: %v", trial, err)
		}

		got, want = base.Clone(), base.Clone()
		got.SteinerizeWith(ev)
		want.refSteinerizeWith(ref)
		if err := sameTree(got, want); err != nil {
			t.Fatalf("trial %d (%d nodes): Steinerize: %v", trial, base.Len(), err)
		}
		if err := sameLoad(ev, got); err != nil {
			t.Fatalf("trial %d: Steinerize: %v", trial, err)
		}
	}
}
