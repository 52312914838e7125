package dw

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// refFrontier is the sort-based reference for FrontierContext: it builds
// every extension and merge candidate — the full |S1|·|S2| cross product
// for merges — stable-sorts them by (w, d) and keeps the staircase. A
// stable sort keeps the earliest-generated candidate of an equal (w, d)
// tie, which is the tie rule the linear fold promises, so the two must
// agree byte for byte on values and trees.
func refFrontier(net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	c, err := newComputation(net, opts)
	if err != nil {
		return nil, err
	}
	final := (&refDP{c: c}).run()
	var out []pareto.Item[*tree.Tree]
	for e := final.off; e < final.end(); e++ {
		out = append(out, pareto.Item[*tree.Tree]{Sol: pareto.Sol{W: c.arena[e].w, D: c.arena[e].d}, Val: c.reconstruct(e)})
	}
	return out, nil
}

// refDP runs the reference recurrence on a computation's grid, subsets and
// arena; cand is its candidate buffer.
type refDP struct {
	c    *computation
	cand []ent
}

func (r *refDP) run() span {
	c := r.c
	if c.m == 0 {
		return span{off: c.push(ent{kind: kBase, sink: -1}), n: 1}
	}
	full := (1 << c.m) - 1
	c.nn = c.grid.NumNodes()
	c.S = make([]span, (full+1)*c.nn)
	order := make([]int, 0, full)
	for q := 1; q <= full; q++ {
		order = append(order, q)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return bits.OnesCount(uint(a)) - bits.OnesCount(uint(b))
	})
	for _, q := range order {
		c.M = make([]span, c.nn)
		if bits.OnesCount(uint(q)) == 1 {
			s := bits.TrailingZeros(uint(q))
			c.M[c.sinkNd[s]] = span{off: c.push(ent{kind: kBase, sink: int16(s)}), n: 1}
		} else {
			r.merge(q)
		}
		r.extend(q)
	}
	return c.state(full, c.rootNd)
}

func (r *refDP) merge(q int) {
	c := r.c
	splits := c.splits(q)
	for _, v := range c.insideNodes(q) {
		cand := r.cand[:0]
		for _, q1 := range splits {
			s1, s2 := c.state(q1, v), c.state(q&^q1, v)
			for e1 := s1.off; e1 < s1.end(); e1++ {
				for e2 := s2.off; e2 < s2.end(); e2++ {
					w := c.arena[e1].w + c.arena[e2].w
					d := geom.Max64(c.arena[e1].d, c.arena[e2].d)
					cand = append(cand, ent{w: w, d: d, kind: kMerge, a: e1, b: e2})
				}
			}
		}
		r.cand = cand
		c.M[v] = r.filterPush()
	}
}

func (r *refDP) extend(q int) {
	c := r.c
	inside := c.insideNodes(q)
	Sq := c.S[q*c.nn : (q+1)*c.nn]
	for _, v := range inside {
		cand := r.cand[:0]
		for _, u := range inside {
			dist := c.grid.Dist(u, v)
			m := c.M[u]
			for e := m.off; e < m.end(); e++ {
				cand = append(cand, ent{
					w: c.arena[e].w + dist, d: c.arena[e].d + dist,
					kind: kExt, a: e, b: int32(u),
				})
			}
		}
		r.cand = cand
		Sq[v] = r.filterPush()
	}
	if !c.opts.ProjectOutside {
		return
	}
	ilo, jlo, ihi, jhi := c.bbox(q)
	for _, v := range c.nodes {
		i, j := c.grid.Coords(v)
		if i >= ilo && i <= ihi && j >= jlo && j <= jhi {
			continue
		}
		u := c.grid.Node(clamp(i, ilo, ihi), clamp(j, jlo, jhi))
		dist := c.grid.Dist(u, v)
		src := Sq[u]
		Sq[v] = span{off: int32(len(c.arena)), n: src.n}
		for e := src.off; e < src.end(); e++ {
			c.push(ent{w: c.arena[e].w + dist, d: c.arena[e].d + dist, kind: kExt, a: e, b: int32(u)})
		}
	}
}

// filterPush stable-sorts r.cand by (w, d) and pushes its staircase.
func (r *refDP) filterPush() span {
	c, cand := r.c, r.cand
	slices.SortStableFunc(cand, func(a, b ent) int {
		return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.d, b.d))
	})
	s := span{off: int32(len(c.arena))}
	bestD := int64(1<<63 - 1)
	for _, e := range cand {
		if e.d < bestD {
			c.push(e)
			s.n++
			bestD = e.d
		}
	}
	return s
}

// diffNet draws a net of degree 2–9 from one of several shape families,
// the degenerate ones included: general position on a small span (many
// equal distances, so many (w, d) ties), duplicate pins, sinks on the
// source, collinear pins, and pins on a span-3 lattice.
func diffNet(rng *rand.Rand) tree.Net {
	n := 2 + rng.Intn(8)
	pins := make([]geom.Point, n)
	switch rng.Intn(5) {
	case 0: // general position
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(40), rng.Int63n(40))
		}
	case 1: // duplicates: every pin copies an earlier one half the time
		for i := range pins {
			if i > 1 && rng.Intn(2) == 0 {
				pins[i] = pins[1+rng.Intn(i-1)]
				continue
			}
			pins[i] = geom.Pt(rng.Int63n(12), rng.Int63n(12))
		}
	case 2: // sinks at the source
		for i := range pins {
			if i > 0 && rng.Intn(3) == 0 {
				pins[i] = pins[0]
				continue
			}
			pins[i] = geom.Pt(rng.Int63n(12), rng.Int63n(12))
		}
	case 3: // collinear, on a row or a column
		row := rng.Int63n(10)
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(20), row)
		}
		if rng.Intn(2) == 0 {
			for i := range pins {
				pins[i] = geom.Pt(pins[i].Y, pins[i].X)
			}
		}
	default: // span 3: a 3×3 lattice, so most pins coincide or align
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(3), rng.Int63n(3))
		}
	}
	return tree.Net{Pins: pins}
}

var allOptions = func() []Options {
	var out []Options
	for k := 0; k < 8; k++ {
		out = append(out, Options{PruneCorners: k&1 != 0, ProjectOutside: k&2 != 0, BoundarySplits: k&4 != 0})
	}
	return out
}()

// sameItems reports whether two frontiers carry the same values and
// byte-identical trees (root, node order, positions, pins, parents).
func sameItems(got, want []pareto.Item[*tree.Tree]) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Sol != want[i].Sol {
			return false
		}
		g, w := got[i].Val, want[i].Val
		if g.Root != w.Root || !slices.Equal(g.Nodes, w.Nodes) || !slices.Equal(g.Parent, w.Parent) {
			return false
		}
	}
	return true
}

// TestFoldMatchesStableSortReference checks the linear staircase fold
// against the stable-sort reference on 10⁴ seeded random nets of degree
// 2–9, every net under one of the 8 pruning combinations in turn.
// The nets are split into parallel shards of 1250, each with its own seed.
func TestFoldMatchesStableSortReference(t *testing.T) {
	shards, perShard := 8, 1250
	if testing.Short() {
		shards = 1
	}
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard=%d", shard), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1201 + shard)))
			for trial := 0; trial < perShard; trial++ {
				net := diffNet(rng)
				opts := allOptions[trial%len(allOptions)]
				got, err := FrontierContext(context.Background(), net, opts)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				want, err := refFrontier(net, opts)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !sameItems(got, want) {
					t.Fatalf("trial %d opts %+v net %v:\n got %v\nwant %v", trial, opts, net.Pins, got, want)
				}
			}
		})
	}
}
