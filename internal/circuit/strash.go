package circuit

import (
	"fmt"
	"slices"
)

// Strash structurally hashes the circuit: gates with the same type and
// the same (order-normalized) fanins are merged, constants are folded
// into gate keys, and buffers collapse. The returned circuit computes
// the same outputs with at most as many gates. Structural hashing is
// the classic front-end of equivalence checkers: structurally identical
// regions of two designs merge before SAT sees them.
func Strash(c *Circuit) *Circuit {
	out := &Circuit{
		Nodes:  make([]Node, 0, len(c.Nodes)),
		byName: make(map[string]NodeID, len(c.Nodes)),
	}
	newID := make([]NodeID, len(c.Nodes))
	table := newGateTable(len(c.Nodes))
	// Every gate's fanin list lives in one backing array, each capped at
	// its own length so an append to one never overwrites the next.
	total := 0
	for i := range c.Nodes {
		total += len(c.Nodes[i].Fanin)
	}
	fanins := make([]NodeID, 0, total)

	var c0, c1 NodeID = NoNode, NoNode
	constNode := func(v bool) NodeID {
		if v {
			if c1 == NoNode {
				c1 = out.AddConst(true, uniqueName(out, "one"))
			}
			return c1
		}
		if c0 == NoNode {
			c0 = out.AddConst(false, uniqueName(out, "zero"))
		}
		return c0
	}

	for i := range c.Nodes {
		n := &c.Nodes[i]
		switch n.Type {
		case Input:
			newID[i] = out.AddInput(n.Name)
		case Const0:
			newID[i] = constNode(false)
		case Const1:
			newID[i] = constNode(true)
		case Buf:
			newID[i] = newID[n.Fanin[0]] // collapse buffers
		default:
			start := len(fanins)
			for _, f := range n.Fanin {
				fanins = append(fanins, newID[f])
			}
			fanin := fanins[start:len(fanins):len(fanins)]
			// Every multi-input gate type is commutative: normalize the
			// fanin order so swapped fanins hash alike.
			slices.Sort(fanin)
			slot, id := table.find(out, n.Type, fanin)
			if id == NoNode {
				id = out.addNode(Node{Type: n.Type, Fanin: fanin, Name: uniqueName(out, n.Name)})
				table.slots[slot] = id
			} else {
				fanins = fanins[:start] // merged: reuse the space
			}
			newID[i] = id
		}
	}
	for _, o := range c.Outputs {
		out.MarkOutput(newID[o])
	}
	return out
}

// gateTable is Strash's hash-consing set: open addressing over the
// gates already in the output circuit, keyed by gate type and sorted
// fanin list. A probe compares the stored gate itself, so two gates
// merge exactly when type and fanins are equal, never on a hash
// collision alone.
type gateTable struct {
	slots []NodeID // NoNode marks an empty slot; len is a power of two
}

// newGateTable sizes the table for up to n gates at load ≤ 1/2, so it
// never has to grow: Strash emits at most one gate per input node.
func newGateTable(n int) gateTable {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	slots := make([]NodeID, size)
	for i := range slots {
		slots[i] = NoNode
	}
	return gateTable{slots: slots}
}

// find returns the gate of out with type t and fanin list fanin, or
// NoNode and the empty slot where that gate belongs.
func (g gateTable) find(out *Circuit, t GateType, fanin []NodeID) (int, NodeID) {
	h := uint64(t)
	for _, f := range fanin {
		h = h*0x9e3779b97f4a7c15 + uint64(f)
	}
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	mask := uint64(len(g.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := g.slots[i]
		if id == NoNode {
			return int(i), NoNode
		}
		if n := &out.Nodes[id]; n.Type == t && slices.Equal(n.Fanin, fanin) {
			return int(i), id
		}
	}
}

func uniqueName(c *Circuit, base string) string {
	if base != "" && c.NodeByName(base) == NoNode {
		return base
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_s%d", base, i)
		if c.NodeByName(name) == NoNode {
			return name
		}
	}
}
