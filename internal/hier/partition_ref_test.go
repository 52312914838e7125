package hier

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/netgen"
	"patlabor/internal/tree"
)

// refPartition is the original formulation of Partition: a stable sort on
// the (axis, off-axis) coordinate key at every level, coincident pins
// kept in input order.
func refPartition(net tree.Net, target int) [][]int {
	sinks := make([]int, net.Degree()-1)
	for i := range sinks {
		sinks[i] = i + 1
	}
	var out [][]int
	var split func(idx []int, depth int)
	split = func(idx []int, depth int) {
		if len(idx) <= target {
			out = append(out, idx)
			return
		}
		axis := depth % 2
		slices.SortStableFunc(idx, func(a, b int) int {
			pa, pb := net.Pins[a], net.Pins[b]
			if axis == 0 {
				if c := cmp.Compare(pa.X, pb.X); c != 0 {
					return c
				}
				return cmp.Compare(pa.Y, pb.Y)
			}
			if c := cmp.Compare(pa.Y, pb.Y); c != 0 {
				return c
			}
			return cmp.Compare(pa.X, pb.X)
		})
		mid := len(idx) / 2
		split(idx[:mid], depth+1)
		split(idx[mid:], depth+1)
	}
	split(sinks, 0)
	return out
}

// TestPartitionMatchesStableReference pins the total-order sort to the
// stable-sort formulation it replaced, on nets dense in coincident pins
// and shared coordinates, where the two could only differ.
func TestPartitionMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		deg := 2 + rng.Intn(600)
		var net tree.Net
		switch trial % 3 {
		case 0:
			net = netgen.Uniform(rng, deg, int64(1+rng.Intn(8)))
		case 1:
			net = netgen.MegaClustered(rng, deg, 100000, 1+rng.Intn(6), 5000)
		default:
			net = netgen.Uniform(rng, deg, 10000)
			for k := 0; k < deg/3; k++ {
				net.Pins[rng.Intn(deg)] = net.Pins[rng.Intn(deg)]
			}
			for k := 1; k < deg; k += 4 {
				net.Pins[k] = geom.Pt(net.Pins[k].X, net.Pins[0].Y)
			}
		}
		target := 2 + rng.Intn(15)
		if got, want := Partition(net, target), refPartition(net, target); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("trial %d (degree %d, target %d): partition differs from the stable-sort reference", trial, deg, target)
		}
	}
}
