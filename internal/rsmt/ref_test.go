package rsmt

import (
	"math/rand"
	"slices"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/tree"
)

// refMSTLength is the full-Prim reference: the rectilinear MST length over
// pins plus Steiner points, O(k²) per call.
func refMSTLength(pins []geom.Point, steiner []geom.Point) int64 {
	pts := append(append([]geom.Point(nil), pins...), steiner...)
	k := len(pts)
	const inf = int64(1) << 62
	dist := make([]int64, k)
	inT := make([]bool, k)
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
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
		for i := 1; i < k; i++ {
			if !inT[i] {
				if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// refOneSteiner is iterated 1-Steiner with every candidate scored by a
// full Prim over pins, chosen Steiner points and the candidate.
func refOneSteiner(net tree.Net) *tree.Tree {
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
	steiner := []geom.Point{}
	base := refMSTLength(net.Pins, steiner)
	for round := 0; round < net.Degree(); round++ {
		bestGain := int64(0)
		bestIdx := -1
		for ci, c := range candidates {
			l := refMSTLength(net.Pins, append(steiner, c))
			if gain := base - l; gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			break
		}
		steiner = append(steiner, candidates[bestIdx])
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
		base -= bestGain
	}
	t := mstWithSteiner(net, steiner)
	refine(t)
	return t
}

// randPoints draws k points on a span×span square; with dups set, about a
// third of them repeat an earlier point.
func randPoints(rng *rand.Rand, k int, span int64, dups bool) []geom.Point {
	pts := make([]geom.Point, k)
	for i := range pts {
		if dups && i > 0 && rng.Intn(3) == 0 {
			pts[i] = pts[rng.Intn(i)]
			continue
		}
		pts[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return pts
}

// TestMSTEvalMatchesPrim checks the incremental MST(P ∪ {c}) length
// against a full Prim on 3000 random point sets of 2–32 points, each with
// random candidates, one of them on a point of P.
func TestMSTEvalMatchesPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ev mstEval
	for trial := 0; trial < 3000; trial++ {
		k := 2 + rng.Intn(31)
		span := []int64{4, 30, 1000}[rng.Intn(3)]
		pts := randPoints(rng, k, span, trial%2 == 1)
		if got, want := ev.reset(pts), refMSTLength(pts, nil); got != want {
			t.Fatalf("trial %d: MST(P) = %d, want %d (P %v)", trial, got, want, pts)
		}
		cands := randPoints(rng, 8, span, false)
		cands = append(cands, pts[rng.Intn(k)])
		for _, c := range cands {
			if got, want := ev.lengthWith(c), refMSTLength(pts, []geom.Point{c}); got != want {
				t.Fatalf("trial %d: MST(P ∪ %v) = %d, want %d (P %v)", trial, c, got, want, pts)
			}
		}
	}
}

// TestOneSteinerMatchesFullPrim checks that Tree, which runs iterated
// 1-Steiner on these degrees, is byte-identical to iterated 1-Steiner
// scored by full Prims, on 400 nets of degree 8–32.
func TestOneSteinerMatchesFullPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(1200))
	for trial := 0; trial < 400; trial++ {
		n := ExactDegree + 1 + rng.Intn(OneSteinerDegree-ExactDegree)
		net := tree.Net{Pins: randPoints(rng, n, []int64{20, 400}[trial%2], trial%4 == 3)}
		got, want := Tree(net), refOneSteiner(net)
		if got.Root != want.Root || !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Parent, want.Parent) {
			t.Fatalf("trial %d: trees differ (net %v)", trial, net.Pins)
		}
	}
}
