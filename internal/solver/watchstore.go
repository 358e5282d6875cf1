package solver

// This file implements the paged watcher store: the watched-literal
// index that finishes what the clause arena started. The per-literal
// watch lists are not individual Go slices (thousands of separate heap
// objects the garbage collector must track); every list lives inside one
// flat backing slice of watcher slots, addressed by a per-literal page
// header {off, n, cap}. A literal's watchers therefore stay contiguous —
// the BCP hot loop walks them exactly as it would a plain slice — while
// the whole index is two pointer-free allocations (slots + headers) no
// matter how many literals the instance has.
//
// Layout:
//
//	data:  [ page₀ | page₁ | page₂ | ... ]           one flat []watcher
//	ref:   per literal {off,n,cap,pos} → its page    one flat []watchRef
//	used:  the literals that currently own a page    one flat []uint32
//	free:  per size class k, head of a free-page chain
//
// Pages have power-of-two capacities watchPageSize<<k. A list that
// outgrows its page moves to a page of the next class and the old page
// is pushed onto its class's free chain; a list that shrinks below a
// quarter of its capacity (propagate's truncate, GC sweeps) moves back
// down and likewise donates its page. Free chains are threaded through
// the dead pages themselves (the first slot's cref field holds the next
// free page's offset), so the free lists cost no extra memory.
//
// The used roster is what keeps whole-store sweeps (the arena GC's patch
// pass) proportional to the lists that exist rather than to every
// literal ever allocated: a literal joins it with its first page and
// leaves it through release, which the level-0 sweep calls for literals
// that can never be watched again (sweep.go).
//
// Invalidation rules — the two aliasing hazards of a relocating store:
//
//   - push may grow data (geometric reallocation) or relocate the pushed
//     literal's page. Any []watcher obtained from list(), and any cached
//     copy of the data slice, is invalidated by a push to ANY literal.
//     propagate therefore re-reads the data slice after each push; page
//     offsets (ref entries) of other literals are never moved by a push,
//     so held offsets stay valid.
//   - truncate may relocate the truncated literal's own page (shrink).
//     Callers must not hold that literal's list across the call.
//
// The store never moves a page behind an in-progress iteration: only
// push(li)/truncate(li) relocate li's page, and propagate only pushes to
// OTHER literals while it walks li (a clause's replacement watch is by
// construction a non-false literal, never the falsified one being
// scanned).

// noPage marks an empty free chain / end of chain.
const noPage = ^uint32(0)

// watchPageSize is the minimum page capacity in slots (a power of two).
// The search does not depend on it, only the paging does.
const watchPageSize = 4

// watchRef is one literal's page header: the watchers of the literal
// occupy data[off : off+n] inside a page of capacity cap slots.
// cap == 0 means the literal owns no page (never watched, or released);
// otherwise pos is the literal's index in the store's used roster.
type watchRef struct {
	off uint32
	n   uint32
	cap uint32
	pos uint32
}

// watchStore is a flat, paged store of per-literal watcher lists. The
// zero value is an empty store. It is owned by a single solver
// goroutine; none of its methods are safe for concurrent use.
type watchStore struct {
	data []watcher  // every page, back to back
	ref  []watchRef // per-literal page headers, indexed by Lit.Index()
	used []uint32   // literal indices owning a page, in no particular order
	free []uint32   // per size class k (cap watchPageSize<<k): free-chain head
}

// growLits ensures page headers exist for literal indices [0, n).
// Fresh literals start with no page (cap 0).
func (st *watchStore) growLits(n int) {
	st.ref = growSlice(st.ref, n, watchRef{})
}

// prealloc gives every literal of an empty store its first page, sized
// for an even share of the n watchers about to be pushed, in one
// allocation with as much again spare: a store whose load is known up
// front (FromFormula) does not climb there page by page, leaving each
// outgrown page dead on a free chain no other list will ever want.
func (st *watchStore) prealloc(n int) {
	lits := len(st.ref) - 2 // variable 0 has none
	if n == 0 || lits <= 0 {
		return
	}
	k := st.class(uint32((n + lits - 1) / lits))
	pageCap := uint32(watchPageSize) << k
	st.free = growSlice(st.free, k+1, noPage)
	st.data = make([]watcher, lits*int(pageCap), 2*lits*int(pageCap))
	st.used = make([]uint32, lits)
	for i := range st.used {
		li := uint32(i + 2)
		st.used[i] = li
		st.ref[li] = watchRef{off: uint32(i) * pageCap, cap: pageCap, pos: uint32(i)}
	}
}

// class returns the size class k of a page capacity (cap =
// watchPageSize<<k).
func (st *watchStore) class(cap uint32) int {
	k := 0
	for c := uint32(watchPageSize); c < cap; c <<= 1 {
		k++
	}
	return k
}

// allocPage returns the offset of a free page of class k, reusing the
// class's free chain when possible and extending the backing slice
// (geometric growth, so allocations stay O(log) in total slots)
// otherwise. Slot contents of a reused page are stale; callers track
// liveness through watchRef.n.
func (st *watchStore) allocPage(k int) uint32 {
	st.free = growSlice(st.free, k+1, noPage)
	if off := st.free[k]; off != noPage {
		st.free[k] = uint32(st.data[off].cref)
		return off
	}
	need := watchPageSize << k
	if cap(st.data)-len(st.data) < need {
		grown := make([]watcher, len(st.data), 2*cap(st.data)+need)
		copy(grown, st.data)
		st.data = grown
	}
	off := uint32(len(st.data))
	st.data = st.data[:len(st.data)+need]
	return off
}

// freePage pushes the page at off onto class k's free chain. The chain
// link lives in the dead page's first slot.
func (st *watchStore) freePage(off uint32, k int) {
	st.data[off].cref = CRef(st.free[k])
	st.free[k] = off
}

// push appends w to literal li's list, growing the list's page to the
// next size class when full. Invalidates every outstanding list() slice
// and cached copy of data (the backing slice may reallocate). The fast
// path is branch-plus-store so the compiler inlines it into the BCP
// loop; the page relocation lives in grow.
func (st *watchStore) push(li int, w watcher) {
	r := &st.ref[li]
	if r.n == r.cap {
		st.grow(li)
	}
	st.data[r.off+r.n] = w
	r.n++
}

// grow moves li's list onto a page of the next size class (or assigns a
// first page, entering li into the used roster), donating the outgrown
// page to its class's free chain. It never moves the ref slice.
func (st *watchStore) grow(li int) {
	r := &st.ref[li]
	if r.cap == 0 {
		r.off = st.allocPage(0)
		r.cap = watchPageSize
		r.pos = uint32(len(st.used))
		st.used = append(st.used, uint32(li))
		return
	}
	k := st.class(r.cap)
	noff := st.allocPage(k + 1)
	copy(st.data[noff:noff+r.n], st.data[r.off:r.off+r.n])
	st.freePage(r.off, k)
	r.off = noff
	r.cap <<= 1
}

// truncate shrinks literal li's list to n live watchers (n must not
// exceed the current count; the caller has already compacted the kept
// watchers into data[off : off+n]). It never relocates the page — watch
// lists oscillate every few propagations, and trading pages on each dip
// would thrash the free chains — so slack capacity is reclaimed by
// shrink, which the arena GC invokes on its sweep.
func (st *watchStore) truncate(li int, n uint32) {
	st.ref[li].n = n
}

// shrink is truncate plus page downsizing: when the list occupies at
// most a quarter of its page, the page is exchanged for the smallest
// class that still leaves doubling room and the old one joins the free
// chain — this is how shrinking watch lists give memory back. Called on
// cold paths (the arena GC's patch sweep), never per-propagation. May
// relocate li's page: do not hold li's list across the call.
func (st *watchStore) shrink(li int, n uint32) {
	r := &st.ref[li]
	r.n = n
	if r.cap > watchPageSize && n*4 <= r.cap {
		target := uint32(watchPageSize)
		for target < n*2 {
			target <<= 1
		}
		if target < r.cap {
			noff := st.allocPage(st.class(target))
			copy(st.data[noff:noff+n], st.data[r.off:r.off+n])
			st.freePage(r.off, st.class(r.cap))
			r.off = noff
			r.cap = target
		}
	}
}

// release drops literal li's list and returns its page to the free
// chain; li leaves the used roster until a later push gives it a page
// again. For lists whose every watcher is known dead.
func (st *watchStore) release(li int) {
	r := &st.ref[li]
	if r.cap == 0 {
		return
	}
	st.freePage(r.off, st.class(r.cap))
	last := st.used[len(st.used)-1]
	st.used[r.pos] = last
	st.ref[last].pos = r.pos
	st.used = st.used[:len(st.used)-1]
	*r = watchRef{}
}

// remove deletes the watcher guarding clause c from literal li's list,
// preserving the order of the remaining watchers. This is the
// inprocessing eager-detach path: a clause about to be probed or shrunk
// in place must leave the watch index entirely (lazy tombstone dropping
// would leave a re-attached clause with duplicate watchers). No-op when
// c is not on the list. Never relocates the page.
func (st *watchStore) remove(li int, c CRef) {
	r := &st.ref[li]
	ws := st.data[r.off : r.off+r.n]
	for i := range ws {
		if ws[i].cref == c {
			copy(ws[i:], ws[i+1:])
			r.n--
			return
		}
	}
}

// list returns literal li's watchers, aliasing the backing slice: writes
// through it update the store in place. The slice is invalidated by any
// push or truncate (of any literal) — it is for bounded read/patch
// loops such as GC patching and the consistency checks, not for holding.
func (st *watchStore) list(li int) []watcher {
	r := st.ref[li]
	return st.data[r.off : r.off+r.n : r.off+r.cap]
}

// freePages counts the pages currently parked on the free chains,
// per class (index k = capacity watchPageSize<<k). Test/diagnostic helper.
func (st *watchStore) freePages() []int {
	counts := make([]int, len(st.free))
	for k, off := range st.free {
		for off != noPage {
			counts[k]++
			off = uint32(st.data[off].cref)
		}
	}
	return counts
}
