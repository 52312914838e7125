package tree

import (
	"math/bits"

	"patlabor/internal/geom"
)

// Compact removes useless Steiner nodes in place: Steiner leaves are
// dropped and Steiner nodes with exactly one child are spliced out
// (their child is reattached to their parent). Both operations never
// increase wirelength or any source-sink path length. Node indices are
// renumbered; the root keeps realising the source pin.
func (t *Tree) Compact() {
	e := GetEvaluator()
	t.CompactWith(e)
	PutEvaluator(e)
}

// CompactWith is Compact evaluating through e's scratch adjacency, for
// callers that run many passes with one evaluator. On return e is loaded
// with the compacted tree.
//
// The pass scans node indices upward, promoting each pin co-located with
// a Steiner parent into that parent as it passes, and splices the first
// Steiner node with at most one child, after which the scan starts over
// at node 0. The scan visits only marked nodes: the candidate bitset
// starts full and stays a superset of the nodes whose condition holds,
// re-marked wherever a splice, removal or promotion touches the tree, so
// the victims, promotions and swap-last renumberings come in exactly the
// order of a scan over every node.
func (t *Tree) CompactWith(e *Evaluator) {
	e.Load(t)
	n := len(t.Nodes)
	e.loadLists(n)
	e.markAll(n)
	for i := e.nextMark(0, len(t.Nodes)); i >= 0; i = e.nextMark(i+1, len(t.Nodes)) {
		e.unmark(i)
		if t.visit(i, e) {
			t.splice(i, e)
			i = -1 // the next scan starts over at node 0
		}
	}
	// Promotions only move pin labels, so the loaded adjacency is still
	// exact unless a splice removed a node.
	if len(t.Nodes) < n {
		e.Load(t)
	}
}

// visit is the scan's step at node i: it promotes a pin co-located with
// its Steiner parent into that parent and reports whether i is a victim —
// a non-root Steiner node with at most one child. A promotion marks the
// nodes whose condition it may have made true: the parent, now a pin
// that may be co-located with a Steiner parent of its own, and i's
// children, which now hang off a Steiner node.
func (t *Tree) visit(i int, e *Evaluator) bool {
	if i == t.Root {
		return false
	}
	kids := e.kids(i)
	if t.Nodes[i].IsSteiner() {
		return len(kids) <= 1
	}
	p := t.Parent[i]
	if !t.Nodes[p].IsSteiner() || t.Nodes[p].P != t.Nodes[i].P {
		return false
	}
	// The pin absorbs the parent's role; i, now Steiner, is dropped below
	// when it has at most one child.
	t.Nodes[p].Pin = t.Nodes[i].Pin
	t.Nodes[i].Pin = -1
	e.mark(p)
	for _, c := range kids {
		e.mark(int(c))
	}
	return len(kids) <= 1
}

// splice removes node v, which has at most one child, reattaching that
// child to v's parent, then fills v's slot with the last node. It keeps
// e's mutable child lists and candidate marks in step: the reattached
// child and a parent that lost a child are re-marked, and the moved
// node's mark follows it.
func (t *Tree) splice(v int, e *Evaluator) {
	q := t.Parent[v]
	at := e.off[q] + e.pos[v]
	if e.cnt[v] == 1 {
		c := e.kid[e.off[v]]
		t.Parent[c] = q
		e.kid[at] = c
		e.pos[c] = e.pos[v]
		e.mark(int(c))
	} else {
		e.cnt[q]--
		moved := e.kid[e.off[q]+e.cnt[q]]
		e.kid[at] = moved
		e.pos[moved] = e.pos[v]
		e.mark(q)
	}
	last := len(t.Nodes) - 1
	if v != last {
		t.Nodes[v] = t.Nodes[last]
		t.Parent[v] = t.Parent[last]
		for _, c := range e.kids(last) {
			t.Parent[c] = v
		}
		if p := t.Parent[last]; p >= 0 {
			e.kid[e.off[p]+e.pos[last]] = int32(v)
		}
		e.off[v], e.cnt[v], e.pos[v] = e.off[last], e.cnt[last], e.pos[last]
		if t.Root == last {
			t.Root = v
		}
		if e.marked(last) {
			e.mark(v)
		}
		e.unmark(last)
	}
	t.Nodes = t.Nodes[:last]
	t.Parent = t.Parent[:last]
}

// Steinerize reduces wirelength in place by inserting Steiner points:
// for a node v with children a and b, the componentwise median s of
// (v, a, b) lies inside the pairwise bounding boxes, so replacing edges
// (v,a),(v,b) by (v,s),(s,a),(s,b) saves exactly dist(v,s) wirelength
// while leaving every source-sink path length unchanged. The pass greedily
// applies the best saving until none remains, then compacts.
func (t *Tree) Steinerize() {
	e := GetEvaluator()
	t.SteinerizeWith(e)
	PutEvaluator(e)
}

// SteinerizeWith is Steinerize evaluating through e's scratch adjacency.
//
// The greedy order is: the largest gain over all nodes, ties to the
// lowest node index, and within a node the first child pair (in index
// order) reaching it. A move at v only changes the child lists of v (a
// and b leave, s joins last) and of the new node s, so each node keeps
// its best pair and only v and s are rescored after a move. A max-heap
// keyed (gain desc, index asc) picks the move. It holds at most one
// entry per node, and that entry is current: a node is queued when it is
// scored, and it is rescored only right after its own entry is popped
// or, as s, when it is created. The tree is loaded once.
func (t *Tree) SteinerizeWith(e *Evaluator) {
	e.Load(t)
	n := len(t.Nodes)
	e.loadLists(n)
	e.pa = growInt32(e.pa, n)
	e.pb = growInt32(e.pb, n)
	e.heap = e.heap[:0]
	for v := 0; v < n; v++ {
		e.rescore(t, v)
	}
	for len(e.heap) > 0 {
		v := int(e.popMove().v)
		a, b := e.pa[v], e.pb[v]
		s := t.Add(medianOf3(t.Nodes[v].P, t.Nodes[a].P, t.Nodes[b].P), -1, v)
		t.Parent[a] = s
		t.Parent[b] = s
		// v's list drops a and b in place and gains s, the highest index,
		// at its end: still index-ordered, one entry shorter.
		kids := e.kids(v)
		w := 0
		for _, c := range kids {
			if c != a && c != b {
				kids[w] = c
				w++
			}
		}
		kids[w] = int32(s)
		e.cnt[v] = int32(w + 1)
		e.off = append(e.off, int32(len(e.kid)))
		e.cnt = append(e.cnt, 2)
		e.kid = append(e.kid, a, b)
		e.pa = append(e.pa, -1)
		e.pb = append(e.pb, -1)
		e.rescore(t, v)
		e.rescore(t, s)
	}
	t.CompactWith(e)
}

// loadLists copies the loaded CSR adjacency of an n-node tree into the
// mutable child lists.
func (e *Evaluator) loadLists(n int) {
	e.off = growInt32(e.off, n)
	e.cnt = growInt32(e.cnt, n)
	e.pos = growInt32(e.pos, n)
	e.kid = append(e.kid[:0], e.child[:e.start[n]]...)
	for v := 0; v < n; v++ {
		e.off[v] = e.start[v]
		e.cnt[v] = e.start[v+1] - e.start[v]
		for k, c := range e.Children(v) {
			e.pos[c] = int32(k)
		}
	}
}

// kids returns v's current entry in the mutable child lists.
func (e *Evaluator) kids(v int) []int32 {
	return e.kid[e.off[v] : e.off[v]+e.cnt[v]]
}

// rescore recomputes v's best pair — the first child pair in list order
// with the strictly greatest gain — and queues v when that gain is
// positive.
func (e *Evaluator) rescore(t *Tree, v int) {
	pv := t.Nodes[v].P
	kids := e.kids(v)
	best := int64(0)
	var ba, bb int32 = -1, -1
	for i := 0; i < len(kids); i++ {
		pa := t.Nodes[kids[i]].P
		for j := i + 1; j < len(kids); j++ {
			g := geom.Dist(pv, medianOf3(pv, pa, t.Nodes[kids[j]].P))
			if g > best {
				best, ba, bb = g, kids[i], kids[j]
			}
		}
	}
	e.pa[v], e.pb[v] = ba, bb
	if best > 0 {
		e.pushMove(move{gain: best, v: int32(v)})
	}
}

// move is a queued Steinerize candidate: node v's best gain when queued.
type move struct {
	gain int64
	v    int32
}

// before orders the move heap: larger gain first, then lower node index.
func (m move) before(o move) bool {
	return m.gain > o.gain || (m.gain == o.gain && m.v < o.v)
}

func (e *Evaluator) pushMove(m move) {
	h := append(e.heap, m)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

func (e *Evaluator) popMove() move {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	return top
}

// markAll sets the first n bits of the candidate bitset.
func (e *Evaluator) markAll(n int) {
	words := (n + 63) / 64
	if cap(e.marks) < words {
		e.marks = make([]uint64, words)
	}
	e.marks = e.marks[:words]
	for i := range e.marks {
		e.marks[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		e.marks[words-1] = 1<<r - 1
	}
}

func (e *Evaluator) mark(i int)        { e.marks[i>>6] |= 1 << (i & 63) }
func (e *Evaluator) unmark(i int)      { e.marks[i>>6] &^= 1 << (i & 63) }
func (e *Evaluator) marked(i int) bool { return e.marks[i>>6]&(1<<(i&63)) != 0 }

// nextMark returns the lowest marked index in [from, n), or -1.
func (e *Evaluator) nextMark(from, n int) int {
	if from >= n {
		return -1
	}
	w := from >> 6
	word := e.marks[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			if i := w<<6 + bits.TrailingZeros64(word); i < n {
				return i
			}
			return -1
		}
		w++
		if w >= (n+63)>>6 {
			return -1
		}
		word = e.marks[w]
	}
}

func medianOf3(a, b, c geom.Point) geom.Point {
	return geom.Point{X: med3(a.X, b.X, c.X), Y: med3(a.Y, b.Y, c.Y)}
}

func med3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// RelocateSteiners moves each Steiner node to the componentwise median of
// its parent and children when that strictly reduces wirelength. Unlike
// Steinerize this may lengthen individual source-sink paths, so callers
// should treat the result as a candidate and Pareto-filter it against the
// original. It reports whether any node moved.
func (t *Tree) RelocateSteiners() bool {
	e := GetEvaluator()
	moved := t.RelocateSteinersWith(e)
	PutEvaluator(e)
	return moved
}

// RelocateSteinersWith is RelocateSteiners evaluating through e's
// scratch adjacency. Relocation only moves coordinates, never edges, so
// the adjacency is loaded once for all passes.
func (t *Tree) RelocateSteinersWith(e *Evaluator) bool {
	moved := false
	e.Load(t)
	for pass := 0; pass < len(t.Nodes); pass++ {
		changed := false
		for i, nd := range t.Nodes {
			if !nd.IsSteiner() || i == t.Root {
				continue
			}
			e.nbr = append(e.nbr[:0], t.Nodes[t.Parent[i]].P)
			for _, c := range e.Children(i) {
				e.nbr = append(e.nbr, t.Nodes[c].P)
			}
			m := e.medianPoint(e.nbr)
			if m == nd.P {
				continue
			}
			before := localWL(nd.P, e.nbr)
			after := localWL(m, e.nbr)
			if after < before {
				t.Nodes[i].P = m
				changed = true
				moved = true
			}
		}
		if !changed {
			break
		}
	}
	return moved
}

func localWL(p geom.Point, nbr []geom.Point) int64 {
	var s int64
	for _, q := range nbr {
		s = geom.AddCheck(s, geom.Dist(p, q))
	}
	return s
}
