package tree

import (
	"fmt"
	"slices"
)

// RelabelPins rewrites the pin indices of t through pinMap: a node
// realising sub-net pin k comes to realise pinMap[k]. Used when a tree was
// routed for a sub-net and is grafted back into the parent net's frame.
func (t *Tree) RelabelPins(pinMap []int) error {
	for i, nd := range t.Nodes {
		if nd.Pin < 0 {
			continue
		}
		if nd.Pin >= len(pinMap) {
			return fmt.Errorf("tree: node %d realises pin %d, map has %d entries", i, nd.Pin, len(pinMap))
		}
		t.Nodes[i].Pin = pinMap[nd.Pin]
	}
	return nil
}

// Graft attaches a copy of sub (rooted anywhere) under node at of t: sub's
// root becomes a child of at unless it coincides with at's position, in
// which case sub's children hang directly off at. Pin indices of sub must
// already be in t's net frame; sub's root pin marking is dropped when the
// roots are merged. It returns the index in t of the node corresponding to
// sub's root. Nodes are appended in sub's root-first, index-ordered BFS
// order (TopoOrder), walked on pooled evaluator scratch.
func (t *Tree) Graft(sub *Tree, at int) int {
	e := GetEvaluator()
	defer PutEvaluator(e)
	idx := e.loadRemap(sub)
	t.grow(sub.Len())
	var rootIdx int
	for _, i := range e.order {
		nd := sub.Nodes[i]
		if int(i) == sub.Root {
			if nd.P == t.Nodes[at].P {
				idx[i] = int32(at)
				if nd.Pin >= 0 && t.Nodes[at].IsSteiner() {
					t.Nodes[at].Pin = nd.Pin
				}
			} else {
				idx[i] = int32(t.Add(nd.P, nd.Pin, at))
			}
			rootIdx = int(idx[i])
			continue
		}
		idx[i] = int32(t.Add(nd.P, nd.Pin, int(idx[sub.Parent[i]])))
	}
	return rootIdx
}

// MergeAtRoot returns a new tree combining a and b, which must be rooted
// at the same position; the result's root carries a's root pin.
func MergeAtRoot(a, b *Tree) (*Tree, error) {
	if a.Nodes[a.Root].P != b.Nodes[b.Root].P {
		return nil, fmt.Errorf("tree: MergeAtRoot roots differ: %v vs %v",
			a.Nodes[a.Root].P, b.Nodes[b.Root].P)
	}
	out := a.Clone()
	e := GetEvaluator()
	defer PutEvaluator(e)
	idx := e.loadRemap(b)
	out.grow(b.Len())
	for _, i := range e.order {
		if int(i) == b.Root {
			idx[i] = int32(out.Root)
			continue
		}
		nd := b.Nodes[i]
		idx[i] = int32(out.Add(nd.P, nd.Pin, int(idx[b.Parent[i]])))
	}
	return out, nil
}

// loadRemap loads sub's adjacency and returns the index-remap scratch
// sized for it.
func (e *Evaluator) loadRemap(sub *Tree) []int32 {
	e.Load(sub)
	e.remap = growInt32(e.remap, sub.Len())
	return e.remap
}

// grow reserves room for k more nodes.
func (t *Tree) grow(k int) {
	t.Nodes = slices.Grow(t.Nodes, k)
	t.Parent = slices.Grow(t.Parent, k)
}

// RemovePin detaches the node realising pin from the tree structure: if it
// is a leaf it is removed, otherwise it is demoted to a Steiner point so
// its subtree stays connected. The pin can then be re-routed and grafted
// back. Removing the source pin (0) is rejected.
func (t *Tree) RemovePin(pin int) error {
	e := GetEvaluator()
	err := t.RemovePinWith(pin, e)
	PutEvaluator(e)
	return err
}

// RemovePinWith is RemovePin compacting through e's scratch adjacency.
func (t *Tree) RemovePinWith(pin int, e *Evaluator) error {
	if pin == 0 {
		return fmt.Errorf("tree: cannot remove the source pin")
	}
	found := false
	for i := range t.Nodes {
		if t.Nodes[i].Pin == pin {
			t.Nodes[i].Pin = -1
			found = true
		}
	}
	if !found {
		return fmt.Errorf("tree: pin %d not present", pin)
	}
	t.CompactWith(e)
	return nil
}
