package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

type frontier = []pareto.Item[*tree.Tree]

// checkFrontier is the benchmark's output oracle for one routed net: the
// frontier is non-empty, every tree is a valid routing tree of net, its
// (W, D) recomputed here from the node geometry equals the reported Sol,
// and the Sols are in canonical order and mutually non-dominated (W
// strictly increasing, D strictly decreasing). validate=false skips the
// O(n·depth) tree.Validate walk and keeps the O(n) checks.
func checkFrontier(net tree.Net, items frontier, validate bool) error {
	if len(items) == 0 {
		return fmt.Errorf("empty frontier")
	}
	for i, it := range items {
		if it.Val == nil {
			return fmt.Errorf("candidate %d: nil tree", i)
		}
		if validate {
			if err := it.Val.Validate(net); err != nil {
				return fmt.Errorf("candidate %d: %w", i, err)
			}
		}
		got, err := recompute(net, it.Val)
		if err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
		if got != it.Sol {
			return fmt.Errorf("candidate %d: reported %v, tree measures %v", i, it.Sol, got)
		}
		if i > 0 {
			prev := items[i-1].Sol
			if it.Sol.W <= prev.W || it.Sol.D >= prev.D {
				return fmt.Errorf("candidates %d,%d: %v then %v is not a sorted non-dominated frontier", i-1, i, prev, it.Sol)
			}
		}
	}
	return nil
}

// scratch is recompute's working memory, reused from call to call so
// the checks between timed requests leave little garbage for the
// requests' collections.
type scratch struct {
	depth []int64
	done  []bool
	stack []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// recompute measures a tree independently of the library's evaluators:
// W is the sum of L1 edge lengths, D the longest source-to-sink path.
func recompute(net tree.Net, t *tree.Tree) (pareto.Sol, error) {
	n := len(t.Nodes)
	if len(t.Parent) != n || t.Root < 0 || t.Root >= n {
		return pareto.Sol{}, fmt.Errorf("malformed tree")
	}
	sc := scratchPool.Get().(*scratch)
	if cap(sc.depth) < n {
		sc.depth, sc.done = make([]int64, n), make([]bool, n)
	}
	depth, done := sc.depth[:n], sc.done[:n]
	clear(done)
	done[t.Root] = true
	depth[t.Root] = 0
	stack := sc.stack[:0]
	defer func() {
		sc.stack = stack[:0]
		scratchPool.Put(sc)
	}()
	var w, d int64
	for i := 0; i < n; i++ {
		for v := i; !done[v]; v = t.Parent[v] {
			p := t.Parent[v]
			if p < 0 || p >= n || len(stack) > n {
				return pareto.Sol{}, fmt.Errorf("node %d does not reach the root", i)
			}
			stack = append(stack, v)
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p := t.Parent[v]
			depth[v] = depth[p] + geom.Dist(t.Nodes[v].P, t.Nodes[p].P)
			done[v] = true
		}
		if i != t.Root {
			w += geom.Dist(t.Nodes[i].P, t.Nodes[t.Parent[i]].P)
		}
		if pin := t.Nodes[i].Pin; pin >= 1 && pin < net.Degree() && depth[i] > d {
			d = depth[i]
		}
	}
	return pareto.Sol{W: w, D: d}, nil
}

// sameSols reports whether two frontiers have identical objective
// vectors in identical order.
func sameSols(a frontier, b []pareto.Sol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sol != b[i] {
			return false
		}
	}
	return true
}

// sameFrontier reports whether two frontiers are byte-identical: equal
// Sols and structurally equal trees.
func sameFrontier(a, b frontier) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sol != b[i].Sol {
			return false
		}
		x, y := a[i].Val, b[i].Val
		if x.Root != y.Root || len(x.Nodes) != len(y.Nodes) {
			return false
		}
		for j := range x.Nodes {
			if x.Nodes[j] != y.Nodes[j] || x.Parent[j] != y.Parent[j] {
				return false
			}
		}
	}
	return true
}

func sols(items frontier) []pareto.Sol {
	out := make([]pareto.Sol, len(items))
	for i, it := range items {
		out[i] = it.Sol
	}
	return out
}

// digest folds frontier (W, D) values, in unit order, into one FNV-1a
// hash, so any change in what the program returns on a fixed seed shows.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (g *digest) add(items frontier) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(items)))
	g.h.Write(buf[:8])
	for _, it := range items {
		binary.LittleEndian.PutUint64(buf[:8], uint64(it.Sol.W))
		binary.LittleEndian.PutUint64(buf[8:], uint64(it.Sol.D))
		g.h.Write(buf[:])
	}
}

func (g *digest) sum() string { return fmt.Sprintf("%016x", g.h.Sum64()) }

// hvNorm is a net's frontier hypervolume, normalised to [0, 1], against
// a reference point taken from the pin geometry alone: four times the
// rectilinear MST length (an upper bound on the RSMT) and three times the
// source's radius (the largest source-to-sink distance, a lower bound on
// any tree's delay). Neither depends on the program, so a faster router
// cannot move the reference. The margins keep the hierarchical router's
// huge-net trees, about twice the MST long, inside the box, and keep
// nets whose best delay is well above the radius from dominating the
// mean.
func hvNorm(net tree.Net, items frontier) float64 {
	ref := pareto.Sol{W: 4 * mstLength(net.Pins), D: 3 * radius(net)}
	if ref.W <= 0 || ref.D <= 0 {
		return 0
	}
	return pareto.Hypervolume(sols(items), ref) / (float64(ref.W) * float64(ref.D))
}

func radius(net tree.Net) int64 {
	var r int64
	for _, p := range net.Sinks() {
		r = max(r, geom.Dist(net.Source(), p))
	}
	return r
}

// mstLength is Prim's algorithm on the complete L1 graph, O(n²).
func mstLength(pts []geom.Point) int64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	const inf = int64(1<<63 - 1)
	best := make([]int64, n)
	in := make([]bool, n)
	for i := range best {
		best[i] = inf
	}
	best[0] = 0
	var total int64
	for k := 0; k < n; k++ {
		u := -1
		for v := 0; v < n; v++ {
			if !in[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		in[u] = true
		total += best[u]
		for v := 0; v < n; v++ {
			if !in[v] {
				best[v] = min(best[v], geom.Dist(pts[u], pts[v]))
			}
		}
	}
	return total
}
