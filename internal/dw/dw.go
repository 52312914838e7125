// Package dw implements Pareto-DW (§IV-A of the paper): an exact dynamic
// program over the Hanan grid that computes the full Pareto frontier of
// timing-driven routing trees for a net, together with one tree per
// frontier point.
//
// The state S_{v,Q} is the Pareto set of (wirelength, delay) objective
// vectors of trees rooted at grid node v spanning the sink subset Q.
// Recurrence (1) of the paper:
//
//	S_{v,Q} = Pareto( ∪_u  S_{u,Q} + ‖u−v‖₁ ,            (extension)
//	                  ∪_{Q₁⊂Q} S_{v,Q₁} ⊕ S_{v,Q\Q₁} )    (merge)
//
// Subsets are processed in increasing popcount order; every solution keeps
// a backpointer so the corresponding tree can be reconstructed exactly.
//
// The three pruning lemmas of §V-A are implemented and independently
// switchable for ablation studies:
//
//	Lemma 2 — corner grid nodes (no pin weakly dominating them in one of
//	          the four quadrant orders) are removed from the grid.
//	Lemma 3 — for v outside the bounding box of Q, S_{v,Q} is derived by
//	          projecting v onto BB(Q) instead of scanning all nodes.
//	Lemma 4 — when all sinks of Q lie on the grid boundary, only splits
//	          into circularly consecutive runs are enumerated.
package dw

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// Options controls the pruning techniques of the dynamic program. All
// prunings are safe: results are identical with any combination, only the
// running time changes.
type Options struct {
	PruneCorners   bool // Lemma 2
	ProjectOutside bool // Lemma 3
	BoundarySplits bool // Lemma 4
}

// DefaultOptions enables every pruning.
func DefaultOptions() Options {
	return Options{PruneCorners: true, ProjectOutside: true, BoundarySplits: true}
}

// MaxExactDegree is the largest net degree Frontier accepts. The DP is
// exponential in the degree; beyond this the practical method's local
// search (internal/core) must be used.
const MaxExactDegree = 16

// Frontier computes the exact Pareto frontier of the net and one optimal
// tree per frontier point, in canonical frontier order.
func Frontier(net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	return FrontierContext(context.Background(), net, opts)
}

// FrontierContext is Frontier with cancellation: the context is checked
// once per sink-subset of the dynamic program, so an expired deadline
// aborts within one subset's worth of work.
func FrontierContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	c, err := newComputation(net, opts)
	if err != nil {
		return nil, err
	}
	final, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]pareto.Item[*tree.Tree], 0, final.n)
	for e := final.off; e < final.end(); e++ {
		t := c.reconstruct(e)
		out = append(out, pareto.Item[*tree.Tree]{Sol: pareto.Sol{W: c.arena[e].w, D: c.arena[e].d}, Val: t})
	}
	return out, nil
}

// FrontierSols computes only the objective vectors of the exact Pareto
// frontier (no tree reconstruction).
func FrontierSols(net tree.Net, opts Options) ([]pareto.Sol, error) {
	return FrontierSolsContext(context.Background(), net, opts)
}

// FrontierSolsContext is FrontierSols with cancellation (see
// FrontierContext).
func FrontierSolsContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Sol, error) {
	c, err := newComputation(net, opts)
	if err != nil {
		return nil, err
	}
	final, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]pareto.Sol, 0, final.n)
	for e := final.off; e < final.end(); e++ {
		out = append(out, pareto.Sol{W: c.arena[e].w, D: c.arena[e].d})
	}
	return out, nil
}

type entKind uint8

const (
	kBase  entKind = iota // a single sink at its own node
	kExt                  // extension: edge from node b to this state's node
	kMerge                // union of two subtrees rooted at the same node
)

// ent is one solution with its backpointer. For kExt, a is the child entry
// and b the node extended from; for kMerge, a and b are the child entries;
// for kBase, sink is the pin index realised.
type ent struct {
	w, d int64
	a, b int32
	sink int16
	kind entKind
}

// span is a run of consecutive arena entries. Every state is pushed in one
// piece once its staircase is final, so a state is the span of its
// entries, in canonical frontier order (w strictly increasing, d strictly
// decreasing).
type span struct{ off, n int32 }

func (s span) end() int32 { return s.off + s.n }

type computation struct {
	net     tree.Net
	opts    Options
	grid    *hanan.Grid
	pt      []geom.Point // plane position of each grid node
	arena   []ent
	nodes   []int // unpruned grid node indices
	keep    []bool
	m       int   // number of distinct sinks
	sinkNd  []int // grid node of each distinct sink
	sinkPt  []geom.Point
	sinkPin []int16       // original pin index of each distinct sink
	dup     map[int][]int // distinct sink -> extra pin indices at same point
	rootNd  int
	// boundary circular order position of each sink, -1 if interior
	boundaryPos []int
	// S holds the state of every (subset, grid node) pair: S_{v,q} is
	// S[q*nn+v].
	S  []span
	nn int // grid nodes

	// Per-subset scratch, reused across the 2^m DP steps (the DP runs
	// once per local-search window, so these appends dominated the
	// router's allocation profile before they were hoisted here).
	M         []span     // merge (or base) frontier of the current subset per grid node
	acc, tmp  []ent      // fold accumulator and its double buffer
	stair     []ent      // the staircase being folded into acc
	insideBuf []int      // insideNodes result
	splitsBuf []int      // splits / boundarySplits result
	msBuf     []bdMember // boundarySplits members
	srcsBuf   []source   // extend's non-empty source nodes
	// seenStamp/seenGen replace boundarySplits' per-call map: a submask is
	// "seen" when its stamp equals the current generation.
	seenStamp []int32
	seenGen   int32
}

// source is a grid node u with a non-empty merge frontier M_u, and the
// ideal corner of that frontier: its cheapest w and its lowest d.
type source struct {
	u    int32
	m    span
	w, d int64
}

// bdMember is one sink of a boundary-split enumeration with its position
// in the clockwise boundary walk.
type bdMember struct{ s, pos int }

func newComputation(net tree.Net, opts Options) (*computation, error) {
	n := net.Degree()
	if n == 0 {
		return nil, fmt.Errorf("dw: empty net")
	}
	if n > MaxExactDegree {
		return nil, fmt.Errorf("dw: degree %d exceeds MaxExactDegree %d", n, MaxExactDegree)
	}
	c := &computation{net: net, opts: opts, grid: hanan.NewGrid(net.Pins)}
	c.pt = make([]geom.Point, c.grid.NumNodes())
	for idx := range c.pt {
		c.pt[idx] = c.grid.Point(idx)
	}

	// Collapse duplicate sink positions; drop sinks at the source.
	src := net.Source()
	byPoint := map[geom.Point]int{}
	c.dup = map[int][]int{}
	for pin := 1; pin < n; pin++ {
		p := net.Pins[pin]
		if p == src {
			c.dup[-1] = append(c.dup[-1], pin)
			continue
		}
		if k, ok := byPoint[p]; ok {
			c.dup[k] = append(c.dup[k], pin)
			continue
		}
		k := len(c.sinkPt)
		byPoint[p] = k
		c.sinkPt = append(c.sinkPt, p)
		c.sinkPin = append(c.sinkPin, int16(pin))
		nd, err := c.grid.Locate(p)
		if err != nil {
			return nil, err
		}
		c.sinkNd = append(c.sinkNd, nd)
	}
	c.m = len(c.sinkPt)
	if c.m > 62 {
		return nil, fmt.Errorf("dw: too many distinct sinks (%d)", c.m)
	}
	rootNd, err := c.grid.Locate(src)
	if err != nil {
		return nil, err
	}
	c.rootNd = rootNd
	c.computeKeep()
	c.computeBoundary()
	return c, nil
}

// computeKeep applies Lemma 2: a grid node is pruned when one of the four
// quadrant orders contains no pin weakly dominating it.
func (c *computation) computeKeep() {
	nn := c.grid.NumNodes()
	c.keep = make([]bool, nn)
	for idx := 0; idx < nn; idx++ {
		p := c.grid.Point(idx)
		if !c.opts.PruneCorners {
			c.keep[idx] = true
			continue
		}
		var ll, lr, ul, ur bool
		for _, q := range c.net.Pins {
			if q.X <= p.X && q.Y <= p.Y {
				ll = true
			}
			if q.X >= p.X && q.Y <= p.Y {
				lr = true
			}
			if q.X <= p.X && q.Y >= p.Y {
				ul = true
			}
			if q.X >= p.X && q.Y >= p.Y {
				ur = true
			}
		}
		c.keep[idx] = ll && lr && ul && ur
	}
	for idx := 0; idx < nn; idx++ {
		if c.keep[idx] {
			c.nodes = append(c.nodes, idx)
		}
	}
}

// computeBoundary assigns each sink its position in the clockwise walk of
// the grid boundary, or -1 for interior sinks (Lemma 4).
func (c *computation) computeBoundary() {
	c.boundaryPos = make([]int, c.m)
	nx, ny := len(c.grid.Xs), len(c.grid.Ys)
	// Clockwise walk starting at (0,0): up the left edge, right along the
	// top, down the right edge, left along the bottom.
	pos := map[int]int{}
	step := 0
	add := func(i, j int) {
		nd := c.grid.Node(i, j)
		if _, ok := pos[nd]; !ok {
			pos[nd] = step
			step++
		}
	}
	for j := 0; j < ny; j++ {
		add(0, j)
	}
	for i := 1; i < nx; i++ {
		add(i, ny-1)
	}
	for j := ny - 2; j >= 0; j-- {
		add(nx-1, j)
	}
	for i := nx - 2; i >= 1; i-- {
		add(i, 0)
	}
	for s := 0; s < c.m; s++ {
		if p, ok := pos[c.sinkNd[s]]; ok {
			c.boundaryPos[s] = p
		} else {
			c.boundaryPos[s] = -1
		}
	}
}

// run executes the dynamic program and returns the entries of the final
// frontier S_{r, all sinks}. The context is checked before every
// sink-subset so cancellation binds within one DP step.
func (c *computation) run(ctx context.Context) (span, error) {
	if err := ctx.Err(); err != nil {
		return span{}, err
	}
	if c.m == 0 {
		// No distinct sinks: the frontier is the single empty tree.
		return span{off: c.push(ent{w: 0, d: 0, kind: kBase, sink: -1}), n: 1}, nil
	}
	full := (1 << c.m) - 1
	c.nn = c.grid.NumNodes()
	c.S = make([]span, (full+1)*c.nn)
	c.M = make([]span, c.nn)

	// Subsets in increasing popcount order.
	order := make([]int, 0, full)
	for q := 1; q <= full; q++ {
		order = append(order, q)
	}
	slices.SortFunc(order, func(a, b int) int {
		if ba, bb := bits.OnesCount(uint(a)), bits.OnesCount(uint(b)); ba != bb {
			return ba - bb
		}
		return a - b
	})

	for _, q := range order {
		if err := ctx.Err(); err != nil {
			return span{}, err
		}
		if bits.OnesCount(uint(q)) == 1 {
			for _, v := range c.insideNodes(q) {
				c.M[v] = span{}
			}
			s := bits.TrailingZeros(uint(q))
			c.M[c.sinkNd[s]] = span{off: c.push(ent{w: 0, d: 0, kind: kBase, sink: int16(s)}), n: 1}
		} else {
			c.mergeCandidates(q)
		}
		c.extend(q)
	}
	return c.state(full, c.rootNd), nil
}

// bbox returns the inclusive rank-coordinate bounding box of the sinks in q.
func (c *computation) bbox(q int) (ilo, jlo, ihi, jhi int) {
	first := true
	for s := 0; s < c.m; s++ {
		if q&(1<<s) == 0 {
			continue
		}
		i, j := c.grid.Coords(c.sinkNd[s])
		if first {
			ilo, jlo, ihi, jhi = i, j, i, j
			first = false
			continue
		}
		if i < ilo {
			ilo = i
		}
		if i > ihi {
			ihi = i
		}
		if j < jlo {
			jlo = j
		}
		if j > jhi {
			jhi = j
		}
	}
	return
}

// insideNodes returns the unpruned grid nodes inside the rank bounding box
// of q (all unpruned nodes when Lemma 3 is disabled). The result aliases
// a scratch buffer valid until the next call.
func (c *computation) insideNodes(q int) []int {
	if !c.opts.ProjectOutside {
		return c.nodes
	}
	ilo, jlo, ihi, jhi := c.bbox(q)
	out := c.insideBuf[:0]
	for j := jlo; j <= jhi; j++ {
		for i := ilo; i <= ihi; i++ {
			nd := c.grid.Node(i, j)
			if c.keep[nd] {
				out = append(out, nd)
			}
		}
	}
	c.insideBuf = out
	return out
}

// mergeCandidates sets M[v], for every node v inside q, to the frontier
// of the merge solutions S_{v,Q1} ⊕ S_{v,Q2} over the admissible splits
// of q: each split's ⊕ frontier is swept in linear time (combine) and
// folded into one accumulator, so the |S1|·|S2| cross product is never
// built. On equal (w, d) the first split in splits order wins.
func (c *computation) mergeCandidates(q int) {
	splits := c.splits(q)
	acc, tmp, run := c.acc, c.tmp, c.stair
	for _, v := range c.insideNodes(q) {
		acc = acc[:0]
		for _, q1 := range splits {
			run = c.combine(run[:0], c.state(q1, v), c.state(q&^q1, v))
			acc, tmp, run = fold(acc, tmp, run)
		}
		c.M[v] = c.pushState(acc)
	}
	c.acc, c.tmp, c.stair = acc, tmp, run
}

// combine appends to run the Pareto frontier of s1 ⊕ s2 = {(w1+w2,
// max(d1,d2))}, in O(|s1|+|s2|). Both operands are staircases, so the
// cheapest pair meeting a delay bound pairs the first entry of each side
// within it: start from both cheapest entries and, to lower the delay,
// advance the side holding the larger one, or both on equal delays. Each
// step strictly raises w and strictly lowers d, so the sweep emits the
// ⊕ frontier in canonical order, every point from the unique pair of
// lowest (s1, s2) indices that attains it.
func (c *computation) combine(run []ent, s1, s2 span) []ent {
	i, j := s1.off, s2.off
	for i < s1.end() && j < s2.end() {
		e1, e2 := &c.arena[i], &c.arena[j]
		run = append(run, ent{w: e1.w + e2.w, d: geom.Max64(e1.d, e2.d), kind: kMerge, a: i, b: j})
		switch {
		case e1.d > e2.d:
			i++
		case e2.d > e1.d:
			j++
		default:
			i++
			j++
		}
	}
	return run
}

// splits enumerates the submasks q1 of q to merge with q\q1, each
// unordered split exactly once (q1 always contains q's lowest sink).
// With Lemma 4, when every sink of q is on the grid boundary only
// circularly consecutive runs are returned.
func (c *computation) splits(q int) []int {
	low := q & -q
	if c.opts.BoundarySplits && c.allOnBoundary(q) {
		return c.boundarySplits(q, low)
	}
	out := c.splitsBuf[:0]
	for q1 := (q - 1) & q; q1 > 0; q1 = (q1 - 1) & q {
		if q1&low != 0 {
			out = append(out, q1)
		}
	}
	c.splitsBuf = out
	return out
}

func (c *computation) allOnBoundary(q int) bool {
	for s := 0; s < c.m; s++ {
		if q&(1<<s) != 0 && c.boundaryPos[s] < 0 {
			return false
		}
	}
	return true
}

// boundarySplits returns the splits {q1, q\q1} where both sides are
// circularly consecutive in the clockwise boundary order, with q1
// containing the sink of mask low.
func (c *computation) boundarySplits(q, low int) []int {
	// Members sorted by boundary position (positions are distinct — each
	// distinct sink occupies its own grid node).
	ms := c.msBuf[:0]
	for s := 0; s < c.m; s++ {
		if q&(1<<s) != 0 {
			ms = append(ms, bdMember{s, c.boundaryPos[s]})
		}
	}
	c.msBuf = ms
	slices.SortFunc(ms, func(a, b bdMember) int { return a.pos - b.pos })
	k := len(ms)
	if c.seenStamp == nil {
		c.seenStamp = make([]int32, 1<<c.m)
	}
	c.seenGen++
	out := c.splitsBuf[:0]
	// All circular runs of length 1..k-1; keep the side containing low.
	for start := 0; start < k; start++ {
		mask := 0
		for l := 1; l < k; l++ {
			mask |= 1 << ms[(start+l-1)%k].s
			q1 := mask
			if q1&low == 0 {
				q1 = q &^ q1
			}
			if c.seenStamp[q1] != c.seenGen {
				c.seenStamp[q1] = c.seenGen
				out = append(out, q1)
			}
		}
	}
	c.splitsBuf = out
	return out
}

// extend computes the extension closure: S_{v,q} for inside nodes from the
// union over inside u of M_u + dist(u,v). A shift by a constant keeps a
// staircase a staircase, so each source's shifted frontier is folded into
// the accumulator as it is; on equal (w, d) the first source in inside
// order wins. Outside nodes are resolved by projection (Lemma 3).
func (c *computation) extend(q int) {
	inside := c.insideNodes(q)
	// Collect source nodes with non-empty M.
	srcs := c.srcsBuf[:0]
	for _, u := range inside {
		if m := c.M[u]; m.n > 0 {
			srcs = append(srcs, source{u: int32(u), m: m, w: c.arena[m.off].w, d: c.arena[m.end()-1].d})
		}
	}
	c.srcsBuf = srcs
	Sq := c.S[q*c.nn : (q+1)*c.nn]
	acc, tmp, run := c.acc, c.tmp, c.stair
	for _, v := range inside {
		acc = acc[:0]
		for _, src := range srcs {
			dist := geom.Dist(c.pt[src.u], c.pt[v])
			// Every shifted entry is weakly dominated by the run's shifted
			// ideal corner; when the accumulator already covers that
			// corner the fold would keep nothing of the run.
			if covers(acc, src.w+dist, src.d+dist) {
				continue
			}
			run = run[:0]
			for e := src.m.off; e < src.m.end(); e++ {
				x := &c.arena[e]
				run = append(run, ent{w: x.w + dist, d: x.d + dist, kind: kExt, a: e, b: src.u})
			}
			acc, tmp, run = fold(acc, tmp, run)
		}
		Sq[v] = c.pushState(acc)
	}
	c.acc, c.tmp, c.stair = acc, tmp, run
	if !c.opts.ProjectOutside {
		return
	}
	// Outside nodes: projection derivation (Lemma 3), computed eagerly so
	// later merges can read any node's state uniformly.
	ilo, jlo, ihi, jhi := c.bbox(q)
	arena := c.arena
	for _, v := range c.nodes {
		i, j := c.grid.Coords(v)
		if i >= ilo && i <= ihi && j >= jlo && j <= jhi {
			continue
		}
		ci, cj := clamp(i, ilo, ihi), clamp(j, jlo, jhi)
		u := c.grid.Node(ci, cj)
		if !c.keep[u] {
			// The projection of an unpruned node onto BB(q) always has a
			// pin in each quadrant (sinks of q supply two sides, the pins
			// witnessing v's quadrants supply the others), so it is never
			// corner-pruned.
			panic("dw: projection target pruned; Lemma 2/3 invariant broken")
		}
		dist := geom.Dist(c.pt[u], c.pt[v])
		src := Sq[u]
		Sq[v] = span{off: int32(len(arena)), n: src.n}
		for e := src.off; e < src.end(); e++ {
			arena = append(arena, ent{
				w: arena[e].w + dist, d: arena[e].d + dist,
				kind: kExt, a: e, b: int32(u),
			})
		}
	}
	c.arena = arena
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// state returns S_{v,q}.
func (c *computation) state(q, v int) span {
	return c.S[q*c.nn+v]
}

func (c *computation) push(e ent) int32 {
	c.arena = append(c.arena, e)
	return int32(len(c.arena) - 1)
}

// fold merges the staircase run into the staircase acc in
// O(|acc|+|run|), using tmp as the output buffer, and returns the new
// accumulator and the two spare buffers. Candidates are folded in the
// order they are generated, so the accumulator's entry wins an equal
// (w, d) tie: the earliest-generated candidate survives, a total order
// independent of any sort. The buffers travel as values, not through the
// computation, so the hot loops write no heap pointers.
func fold(acc, tmp, run []ent) (_, _, _ []ent) {
	switch {
	case len(run) == 0:
		return acc, tmp, run
	case len(acc) == 0:
		return run, tmp, acc
	}
	out := tmp[:0]
	bestD := int64(1<<63 - 1)
	i, j := 0, 0
	for i < len(acc) && j < len(run) {
		var e ent
		if acc[i].w < run[j].w || acc[i].w == run[j].w && acc[i].d <= run[j].d {
			e = acc[i]
			i++
		} else {
			e = run[j]
			j++
		}
		if e.d < bestD {
			out = append(out, e)
			bestD = e.d
		}
	}
	// One side is exhausted; the other's d strictly decreases, so it
	// contributes its suffix below bestD.
	rest := acc[i:]
	if i == len(acc) {
		rest = run[j:]
	}
	for k, e := range rest {
		if e.d < bestD {
			out = append(out, rest[k:]...)
			break
		}
	}
	return out, acc[:0], run
}

// covers reports whether an entry of the staircase acc weakly dominates
// (w, d).
func covers(acc []ent, w, d int64) bool {
	// acc's d strictly decreases, so the last entry with w' <= w has the
	// lowest d among them; binary search for it.
	lo, hi := 0, len(acc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if acc[mid].w <= w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && acc[lo-1].d <= d
}

// pushState pushes a finished staircase into the arena as one state.
func (c *computation) pushState(acc []ent) span {
	s := span{off: int32(len(c.arena)), n: int32(len(acc))}
	c.arena = append(c.arena, acc...)
	return s
}

// reconstruct rebuilds the routing tree of entry e, rooted at the source.
func (c *computation) reconstruct(e int32) *tree.Tree {
	t := tree.New(c.net.Source(), 0)
	c.emit(e, c.rootNd, t.Root, t)
	// Attach duplicate pins: sinks co-located with the source...
	for _, pin := range c.dup[-1] {
		t.Add(c.net.Source(), pin, t.Root)
	}
	// ...and sinks co-located with another sink, attached with zero-length
	// edges at their shared position. Iterate distinct sinks by index, not
	// by ranging c.dup: map order would make the node order of trees with
	// duplicate pins depend on the iteration seed.
	for k := 0; k < c.m; k++ {
		for _, pin := range c.dup[k] {
			// Find a tree node at the sink position.
			at := -1
			for i, nd := range t.Nodes {
				if nd.P == c.sinkPt[k] {
					at = i
					break
				}
			}
			if at < 0 {
				at = t.Root // unreachable in valid reconstructions
			}
			t.Add(c.sinkPt[k], pin, at)
		}
	}
	t.Compact()
	return t
}

// emit materialises entry e as a subtree hanging off tree node atNode,
// where atNode is positioned at grid node v.
func (c *computation) emit(e int32, v int, atNode int, t *tree.Tree) {
	en := c.arena[e]
	switch en.kind {
	case kBase:
		if en.sink < 0 {
			return
		}
		pt := c.sinkPt[en.sink]
		pin := int(c.sinkPin[en.sink])
		if t.Nodes[atNode].P == pt && t.Nodes[atNode].IsSteiner() {
			t.Nodes[atNode].Pin = pin
			return
		}
		t.Add(pt, pin, atNode)
	case kExt:
		u := int(en.b)
		child := t.Add(c.grid.Point(u), -1, atNode)
		c.emit(en.a, u, child, t)
	case kMerge:
		c.emit(en.a, v, atNode, t)
		c.emit(en.b, v, atNode, t)
	}
}
