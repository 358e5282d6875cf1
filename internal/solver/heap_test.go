package solver

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// swapHeap is the swap-per-level sift varHeap used before it moved a
// hole: the reference the hole-based sift must match entry for entry.
type swapHeap struct {
	act     *[]float64
	heap    []cnf.Var
	indices []int
}

func (h *swapHeap) less(a, b cnf.Var) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *swapHeap) contains(v cnf.Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *swapHeap) push(v cnf.Var) {
	for len(h.indices) <= int(v) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *swapHeap) pop() cnf.Var {
	v := h.heap[0]
	h.swap(0, len(h.heap)-1)
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *swapHeap) remove(v cnf.Var) {
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

func (h *swapHeap) update(v cnf.Var) {
	if !h.contains(v) {
		return
	}
	h.up(h.indices[v])
	h.down(h.indices[v])
}

func (h *swapHeap) increased(v cnf.Var) {
	if h.contains(v) {
		h.up(h.indices[v])
	}
}

func (h *swapHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i
	h.indices[h.heap[j]] = j
}

func (h *swapHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *swapHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < n && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// TestHeapHoleSiftMatchesSwapSift drives varHeap and the swap-based
// reference through the same random push/bump/decay/pop/remove/rescale
// sequences over one activity slice. Ties are common (coarse integer
// increments), so any change to the strict comparisons would show. The
// arrays and index maps must be identical after every operation, and
// pops must return the same variable.
func TestHeapHoleSiftMatchesSwapSift(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		act := make([]float64, n+1)
		got := newVarHeap(&act)
		want := &swapHeap{act: &act}
		for op := 0; op < 600; op++ {
			v := cnf.Var(rng.Intn(n) + 1)
			var what string
			switch k := rng.Intn(10); {
			case k < 3:
				what = "push"
				got.push(v)
				want.push(v)
			case k < 5:
				what = "bump"
				act[v] += float64(rng.Intn(3))
				got.increased(v)
				want.increased(v)
			case k < 6:
				what = "decay"
				act[v] = float64(rng.Intn(3))
				got.update(v)
				want.update(v)
			case k < 8:
				what = "pop"
				if got.empty() != (len(want.heap) == 0) {
					t.Fatalf("seed %d op %d: emptiness differs", seed, op)
				}
				if got.empty() {
					continue
				}
				if a, b := got.pop(), want.pop(); a != b {
					t.Fatalf("seed %d op %d: pop %d, reference %d", seed, op, a, b)
				}
			case k < 9:
				what = "remove"
				got.remove(v)
				want.remove(v)
			default:
				// bumpVar's overflow guard: every activity scaled at once,
				// no reordering call.
				what = "rescale"
				for i := range act {
					act[i] *= 1e-100
				}
			}
			if !slices.Equal(got.heap, want.heap) || !slices.Equal(got.indices, want.indices) {
				t.Fatalf("seed %d op %d (%s %d): heap %v / %v, reference %v / %v",
					seed, op, what, v, got.heap, got.indices, want.heap, want.indices)
			}
		}
	}
}
