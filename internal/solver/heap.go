package solver

import "repro/internal/cnf"

// varHeap is an indexed max-heap of variables ordered by activity.
// It holds a pointer to the solver's activity slice so bumps reorder
// entries in place.
type varHeap struct {
	act     *[]float64
	heap    []cnf.Var
	indices []int // position of var in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

func (h *varHeap) grow(v cnf.Var) {
	for len(h.indices) <= int(v) {
		h.indices = append(h.indices, -1)
	}
}

// reserve makes room for variables 1..n, so that pushing them all
// allocates nothing further.
func (h *varHeap) reserve(n int) {
	h.indices = growSlice(h.indices, n+1, -1)
	h.heap = reserve(h.heap, n)
}

func (h *varHeap) contains(v cnf.Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) push(v cnf.Var) {
	h.grow(v)
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

// clear empties the heap, keeping its storage.
func (h *varHeap) clear() {
	for _, v := range h.heap {
		h.indices[v] = -1
	}
	h.heap = h.heap[:0]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) pop() cnf.Var {
	v := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

// remove takes v out of the heap wherever it sits (no-op when absent).
func (h *varHeap) remove(v cnf.Var) {
	if !h.contains(v) {
		return
	}
	i, last := h.indices[v], len(h.heap)-1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if i < last {
		h.update(h.heap[i])
	}
}

// update restores heap order after v's activity changed.
func (h *varHeap) update(v cnf.Var) {
	if !h.contains(v) {
		return
	}
	i := h.indices[v]
	h.up(i)
	h.down(h.indices[v])
}

// increased is update for an activity that only grew (every VSIDS
// bump): the entry can only need to rise.
func (h *varHeap) increased(v cnf.Var) {
	if h.contains(v) {
		h.up(h.indices[v])
	}
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i
	h.indices[h.heap[j]] = j
}

// up and down sift a hole instead of swapping per level: the moving
// variable is written once, at its final slot. The comparisons are the
// strict > of a swap-based sift, so the array ends up the same.
func (h *varHeap) up(i int) {
	act, heap := *h.act, h.heap
	v := heap[i]
	av := act[v]
	for i > 0 {
		parent := (i - 1) / 2
		p := heap[parent]
		if !(av > act[p]) {
			break
		}
		heap[i] = p
		h.indices[p] = i
		i = parent
	}
	heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	act, heap := *h.act, h.heap
	n := len(heap)
	v := heap[i]
	av := act[v]
	for {
		l, r := 2*i+1, 2*i+2
		best, bestAct := i, av
		if l < n && act[heap[l]] > bestAct {
			best, bestAct = l, act[heap[l]]
		}
		if r < n && act[heap[r]] > bestAct {
			best = r
		}
		if best == i {
			break
		}
		heap[i] = heap[best]
		h.indices[heap[i]] = i
		i = best
	}
	heap[i] = v
	h.indices[v] = i
}
