package tree

import "patlabor/internal/geom"

// This file keeps the original rescan formulations of SteinerizeWith and
// CompactWith as executable references. The production passes replay
// exactly these move sequences through incremental structures; the
// differentials in refine_diff_test.go (and, on hier-grafted trees, in
// grafted_test.go) compare the two node for node.

// RefSteinerizeWith and RefCompactWith expose the references to the
// external test package, whose grafted-tree differential needs hier.
var (
	RefSteinerizeWith = (*Tree).refSteinerizeWith
	RefCompactWith    = (*Tree).refCompactWith
)

// refSteinerizeWith applies one move per iteration: reload the adjacency,
// rescan every child pair of every node, and insert the median Steiner
// point of the first pair with the strictly greatest gain.
func (t *Tree) refSteinerizeWith(e *Evaluator) {
	for {
		e.Load(t)
		bestGain := int64(0)
		bestV, bestA, bestB := -1, -1, -1
		var bestS geom.Point
		for v := range t.Nodes {
			kids := e.Children(v)
			for i := 0; i < len(kids); i++ {
				for j := i + 1; j < len(kids); j++ {
					a, b := int(kids[i]), int(kids[j])
					s := medianOf3(t.Nodes[v].P, t.Nodes[a].P, t.Nodes[b].P)
					gain := geom.Dist(t.Nodes[v].P, s)
					if gain > bestGain {
						bestGain, bestV, bestA, bestB, bestS = gain, v, a, b, s
					}
				}
			}
		}
		if bestGain == 0 {
			break
		}
		s := t.Add(bestS, -1, bestV)
		t.Parent[bestA] = s
		t.Parent[bestB] = s
	}
	t.refCompactWith(e)
}

// refCompactWith restarts its scan from node 0 after every victim and
// renumbers through refRemove's full parent scan.
func (t *Tree) refCompactWith(e *Evaluator) {
	for {
		e.Load(t)
		victim := -1
		for i, nd := range t.Nodes {
			if i == t.Root {
				continue
			}
			if nd.IsSteiner() && len(e.Children(i)) <= 1 {
				victim = i
				break
			}
			p := t.Parent[i]
			if !nd.IsSteiner() && t.Nodes[p].IsSteiner() && t.Nodes[p].P == nd.P {
				t.Nodes[p].Pin = nd.Pin
				t.Nodes[i].Pin = -1
				if len(e.Children(i)) <= 1 {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			return
		}
		for _, c := range e.Children(victim) {
			t.Parent[c] = t.Parent[victim]
		}
		t.refRemove(victim)
	}
}

// refRemove deletes node i by moving the last node into its slot.
func (t *Tree) refRemove(i int) {
	last := len(t.Nodes) - 1
	if i != last {
		t.Nodes[i] = t.Nodes[last]
		t.Parent[i] = t.Parent[last]
		for j := range t.Parent {
			if t.Parent[j] == last {
				t.Parent[j] = i
			}
		}
		if t.Root == last {
			t.Root = i
		}
	}
	t.Nodes = t.Nodes[:last]
	t.Parent = t.Parent[:last]
}
