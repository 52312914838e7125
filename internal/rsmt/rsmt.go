// Package rsmt constructs rectilinear Steiner minimum trees and stands in
// for FLUTE [4] wherever the paper uses it: producing the initial tree T₀
// of the local search (§V-B) and the wirelength normaliser w(FLUTE) of
// Figure 7.
//
// Three engines are layered by net degree:
//
//   - degree ≤ ExactDegree: the exact minimum-wirelength tree, taken from
//     the minimum-W endpoint of the exact Pareto frontier (internal/dw);
//   - degree ≤ OneSteinerDegree: the Kahng–Robins iterated 1-Steiner
//     heuristic [8] over Hanan-grid candidates;
//   - larger nets: rectilinear MST (Prim) followed by delay-preserving
//     Steinerisation and Steiner-point relocation.
package rsmt

import (
	"slices"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/tree"
)

// ExactDegree is the largest degree routed exactly.
const ExactDegree = 7

// OneSteinerDegree is the largest degree routed by iterated 1-Steiner.
const OneSteinerDegree = 32

// Tree returns a low-wirelength rectilinear Steiner tree for the net,
// rooted at the source. The result is exact for degree <= ExactDegree.
func Tree(net tree.Net) *tree.Tree {
	n := net.Degree()
	switch {
	case n <= 1:
		return tree.New(net.Source(), 0)
	case n == 2:
		return tree.Star(net)
	case n <= ExactDegree:
		items, err := dw.Frontier(net, dw.DefaultOptions())
		if err == nil && len(items) > 0 {
			return items[0].Val
		}
		// Unreachable for valid nets; fall through to the heuristic.
		fallthrough
	case n <= OneSteinerDegree:
		return oneSteiner(net)
	default:
		t := MST(net)
		refine(t)
		return t
	}
}

// Wirelength returns the wirelength of Tree(net).
func Wirelength(net tree.Net) int64 { return Tree(net).Wirelength() }

// MST returns the rectilinear minimum spanning tree of the pins (Prim's
// algorithm, O(n²)), rooted at the source. No Steiner points are added.
func MST(net tree.Net) *tree.Tree {
	n := net.Degree()
	t := tree.New(net.Source(), 0)
	if n <= 1 {
		return t
	}
	const inf = int64(1) << 62
	dist := make([]int64, n)
	from := make([]int, n) // tree node index of the closest in-tree node
	inTree := make([]bool, n)
	for i := 1; i < n; i++ {
		dist[i] = geom.Dist(net.Pins[i], net.Source())
		from[i] = t.Root
	}
	inTree[0] = true
	for added := 1; added < n; added++ {
		best, bestD := -1, inf
		for i := 1; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		node := t.Add(net.Pins[best], best, from[best])
		inTree[best] = true
		for i := 1; i < n; i++ {
			if inTree[i] {
				continue
			}
			if d := geom.Dist(net.Pins[i], net.Pins[best]); d < dist[i] {
				dist[i] = d
				from[i] = node
			}
		}
	}
	return t
}

// refine applies wirelength-reducing post-passes until fixpoint.
func refine(t *tree.Tree) {
	for pass := 0; pass < 8; pass++ {
		t.Steinerize()
		if !t.RelocateSteiners() {
			return
		}
	}
	t.Compact()
}

// oneSteiner runs the Kahng–Robins iterated 1-Steiner heuristic: greedily
// add the Hanan candidate point whose inclusion reduces the MST wirelength
// the most, until no candidate helps.
func oneSteiner(net tree.Net) *tree.Tree {
	g := hanan.NewGrid(net.Pins)
	pinSet := map[geom.Point]bool{}
	for _, p := range net.Pins {
		pinSet[p] = true
	}
	var candidates []geom.Point
	for idx := 0; idx < g.NumNodes(); idx++ {
		if p := g.Point(idx); !pinSet[p] {
			candidates = append(candidates, p)
		}
	}
	pts := append([]geom.Point(nil), net.Pins...)
	var ev mstEval
	base := ev.reset(pts)
	for round := 0; round < net.Degree(); round++ {
		bestGain := int64(0)
		bestIdx := -1
		for ci, c := range candidates {
			if gain := base - ev.lengthWith(c); gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			break
		}
		pts = append(pts, candidates[bestIdx])
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
		base = ev.reset(pts)
	}
	t := mstWithSteiner(net, pts[net.Degree():])
	// Degree-2 Steiner points are artefacts of the candidate set; splice
	// them and apply the trunk-sharing passes.
	refine(t)
	return t
}

// mstEval measures the rectilinear MST length of a point set P with one
// extra point c, for many c. Adding a point never needs an edge between
// two points of P outside MST(P) — such an edge is the longest on a cycle
// of MST(P) — so MST(P ∪ {c}) is the minimum spanning tree of
// MST(P) ∪ star(c), whose length lengthWith finds in O(k) where a full
// Prim over P ∪ {c} costs O(k²).
type mstEval struct {
	pts   []geom.Point
	order []int32 // points in Prim's insertion order: parents precede children
	par   []int32 // MST(P) parent of each point (point 0 is the root)
	plen  []int64 // length of the edge to the parent
	// Per-candidate scratch, indexed by point: the MST length of a subtree
	// plus c, and the longest edge on that MST's path from the point to c.
	sub, far []int64
}

// reset sets P to pts (retained, not copied) and returns its MST length.
func (ev *mstEval) reset(pts []geom.Point) int64 {
	k := len(pts)
	ev.pts = pts
	ev.order = append(ev.order[:0], 0)
	ev.par = slices.Grow(ev.par[:0], k)[:k]
	ev.plen = slices.Grow(ev.plen[:0], k)[:k]
	ev.sub = slices.Grow(ev.sub[:0], k)[:k]
	ev.far = slices.Grow(ev.far[:0], k)[:k]
	const inf = int64(1) << 62
	dist := make([]int64, k)
	inT := make([]bool, k)
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
		ev.par[i] = 0
	}
	inT[0] = true
	var total int64
	for added := 1; added < k; added++ {
		best, bestD := -1, inf
		for i := 1; i < k; i++ {
			if !inT[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		total += bestD
		inT[best] = true
		ev.order = append(ev.order, int32(best))
		ev.plen[best] = bestD
		for i := 1; i < k; i++ {
			if !inT[i] {
				if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
					dist[i], ev.par[i] = d, int32(best)
				}
			}
		}
	}
	return total
}

// lengthWith returns the MST length of P ∪ {c}. It builds the MST of
// MST(P) ∪ star(c) bottom-up: each point starts as its own star edge to
// c, and each subtree, once complete, is joined to its parent's partial
// tree by the tree edge between them. That edge closes exactly one cycle
// — the edge, the child's path to c and the parent's path to c — and the
// cycle's longest edge is dropped, so the partial trees stay minimum
// (the cycle rule) and only each point's longest edge on its path to c
// needs tracking.
func (ev *mstEval) lengthWith(c geom.Point) int64 {
	for i, p := range ev.pts {
		d := geom.Dist(c, p)
		ev.sub[i], ev.far[i] = d, d
	}
	for idx := len(ev.order) - 1; idx >= 1; idx-- {
		w := ev.order[idx]
		p := ev.par[w]
		e := ev.plen[w]
		// The joined subtree's path to c runs through e.
		via := max(e, ev.far[w])
		drop := via
		if ev.far[p] > via {
			// The parent's own path loses its longest edge, and now
			// reaches c through the child.
			drop, ev.far[p] = ev.far[p], via
		}
		ev.sub[p] += ev.sub[w] + e - drop
	}
	return ev.sub[0]
}

// mstWithSteiner builds the rooted MST over pins and chosen Steiner points.
func mstWithSteiner(net tree.Net, steiner []geom.Point) *tree.Tree {
	pts := append(append([]geom.Point(nil), net.Pins...), steiner...)
	k := len(pts)
	n := net.Degree()
	t := tree.New(net.Source(), 0)
	const inf = int64(1) << 62
	dist := make([]int64, k)
	from := make([]int, k)
	inT := make([]bool, k)
	nodeOf := make([]int, k)
	nodeOf[0] = t.Root
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
		from[i] = t.Root
	}
	inT[0] = true
	for added := 1; added < k; added++ {
		best, bestD := -1, inf
		for i := 1; i < k; i++ {
			if !inT[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		pin := -1
		if best < n {
			pin = best
		}
		nodeOf[best] = t.Add(pts[best], pin, from[best])
		inT[best] = true
		for i := 1; i < k; i++ {
			if inT[i] {
				continue
			}
			if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
				dist[i] = d
				from[i] = nodeOf[best]
			}
		}
	}
	return t
}
