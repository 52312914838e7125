package hier

import (
	"cmp"
	"slices"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// Partition splits the net's sink pin indices into geometric clusters of
// at most target pins by recursive median split on axes alternating with
// depth — the divide step of ks.route, applied to the whole pin cloud at
// once. Sinks are sorted on the total order (axis, off-axis, pin index) at
// every level, so coincident pins stay in ascending pin order and the
// result is a pure function of the pin coordinates: the cluster list, the
// order of clusters (depth-first, near half before far half) and the pin
// order inside each cluster are all independent of worker count, memo
// state, or anything else the router varies. Every sink appears in
// exactly one cluster; clusters are non-empty.
func Partition(net tree.Net, target int) [][]int {
	n := net.Degree()
	if n <= 1 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	sinks := make([]int, n-1)
	for i := range sinks {
		sinks[i] = i + 1
	}
	out := make([][]int, 0, (n-1+target-1)/target)
	var split func(idx []int, depth int)
	split = func(idx []int, depth int) {
		if len(idx) <= target {
			out = append(out, idx)
			return
		}
		axis := depth % 2
		// (axis, off-axis, pin index): the pin-index tie-break makes the
		// order total, so the unstable sort is deterministic.
		slices.SortFunc(idx, func(a, b int) int {
			pa, pb := net.Pins[a], net.Pins[b]
			if axis == 1 {
				pa.X, pa.Y, pb.X, pb.Y = pa.Y, pa.X, pb.Y, pb.X
			}
			if c := cmp.Compare(pa.X, pb.X); c != 0 {
				return c
			}
			if c := cmp.Compare(pa.Y, pb.Y); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		mid := len(idx) / 2
		split(idx[:mid], depth+1)
		split(idx[mid:], depth+1)
	}
	split(sinks, 0)
	return out
}

// Port returns a cluster's representative pin: the member closest to the
// net's source, ties broken by the lowest pin index. The port anchors the
// cluster in the top-level net and roots the cluster's own subproblem, so
// the choice only shapes quality — but it must be deterministic, hence
// the total tie-break.
func Port(net tree.Net, cluster []int) int {
	best := cluster[0]
	bd := geom.Dist(net.Pins[best], net.Pins[0])
	for _, p := range cluster[1:] {
		d := geom.Dist(net.Pins[p], net.Pins[0])
		if d < bd || (d == bd && p < best) {
			best, bd = p, d
		}
	}
	return best
}
