package solver

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// --- store-level unit tests -------------------------------------------------

// TestWatchStorePushAndList pushes distinguishable watchers across many
// literals and checks every list comes back complete, in order, and
// isolated from its neighbours.
func TestWatchStorePushAndList(t *testing.T) {
	var st watchStore
	const lits, per = 50, 23
	st.growLits(lits)
	for i := 0; i < per; i++ {
		for li := 0; li < lits; li++ {
			st.push(li, watcher{CRef(li*1000 + i), cnf.Lit(li)})
		}
	}
	for li := 0; li < lits; li++ {
		ws := st.list(li)
		if len(ws) != per {
			t.Fatalf("lit %d: got %d watchers, want %d", li, len(ws), per)
		}
		for i, w := range ws {
			if w.cref != CRef(li*1000+i) || w.blocker != cnf.Lit(li) {
				t.Fatalf("lit %d slot %d: got %+v", li, i, w)
			}
		}
	}
}

// TestWatchStoreGrowFreesOldPage verifies the grow path donates the
// outgrown page to its class's free chain and that a later allocation
// of that class reuses it instead of extending the backing slice.
func TestWatchStoreGrowFreesOldPage(t *testing.T) {
	var st watchStore
	st.growLits(4)
	for i := 0; i < 5; i++ { // fifth push grows lit 0 from cap 4 to cap 8
		st.push(0, watcher{CRef(i), 0})
	}
	if free := st.freePages(); free[0] != 1 {
		t.Fatalf("outgrown class-0 page not on the free chain: %v", free)
	}
	before := len(st.data)
	st.push(1, watcher{99, 0}) // needs a fresh class-0 page
	if len(st.data) != before {
		t.Fatalf("class-0 allocation extended the backing slice (%d → %d) despite a free page", before, len(st.data))
	}
	if free := st.freePages(); free[0] != 0 {
		t.Fatalf("free page not consumed: %v", free)
	}
	// Nothing was lost in the shuffle.
	if got := st.list(0); len(got) != 5 || got[4].cref != 4 {
		t.Fatalf("lit 0 list corrupted by grow: %+v", got)
	}
	if got := st.list(1); len(got) != 1 || got[0].cref != 99 {
		t.Fatalf("lit 1 list corrupted: %+v", got)
	}
}

// TestWatchStoreShrinkReleasesPage verifies the shrink path: a list
// dropping to a quarter of its page moves to a smaller page and the big
// one joins the free chain, ready for reuse.
func TestWatchStoreShrinkReleasesPage(t *testing.T) {
	var st watchStore
	st.growLits(2)
	for i := 0; i < 33; i++ { // cap grows 4→8→16→32→64
		st.push(0, watcher{CRef(i), 0})
	}
	if st.ref[0].cap != 64 {
		t.Fatalf("cap = %d, want 64", st.ref[0].cap)
	}
	st.shrink(0, 3) // 3*4 ≤ 64 → shrink
	if st.ref[0].cap >= 64 {
		t.Fatalf("shrink did not reduce the page (cap %d)", st.ref[0].cap)
	}
	if got := st.list(0); len(got) != 3 || got[0].cref != 0 || got[2].cref != 2 {
		t.Fatalf("kept watchers corrupted by shrink: %+v", got)
	}
	// The released class-4 (cap 64) page must be reusable. (The shrink
	// itself already recycled the cap-8 page lit 0 outgrew earlier.)
	k := st.class(64)
	if st.freePages()[k] != 1 {
		t.Fatalf("cap-64 page not on the free chain: %v", st.freePages())
	}
	// Growing lit 1 through cap 64 must reuse every freed page — the
	// chains hold caps 4, 16, 32 and 64, so only the cap-8 step may
	// extend the backing slice.
	before := len(st.data)
	for i := 0; i < 64; i++ {
		st.push(1, watcher{CRef(i), 0})
	}
	if len(st.data) != before+8 {
		t.Fatalf("backing slice grew by %d, want 8: freed pages were not reused", len(st.data)-before)
	}
	if st.freePages()[k] != 0 {
		t.Fatalf("cap-64 page still on the free chain after reuse: %v", st.freePages())
	}
}

// TestWatchStorePrealloc: a preallocated store takes its whole load
// without touching the backing slice or a free chain, keeps the lists
// apart, and its pages join the ordinary life cycle afterwards — one
// that is outgrown or shrunk lands on the free chain of its class.
func TestWatchStorePrealloc(t *testing.T) {
	var st watchStore
	const lits, per = 20, 11 // an even share of 11 needs a 16-slot page
	st.growLits(lits)
	st.prealloc((lits - 2) * per)
	base, free := &st.data[0], len(st.free)
	for i := 0; i < per; i++ {
		for li := 2; li < lits; li++ {
			st.push(li, watcher{CRef(li*100 + i), cnf.Lit(li)})
		}
	}
	if &st.data[0] != base || len(st.data) != (lits-2)*16 {
		t.Fatalf("the load moved or extended the backing slice (%d slots)", len(st.data))
	}
	if len(st.used) != lits-2 || len(st.free) != free || st.freePages()[st.class(16)] != 0 {
		t.Fatalf("rosters after the load: %d used, free chains %v", len(st.used), st.freePages())
	}
	for li := 2; li < lits; li++ {
		ws := st.list(li)
		if len(ws) != per || ws[0].cref != CRef(li*100) || ws[per-1].cref != CRef(li*100+per-1) {
			t.Fatalf("lit %d: %+v", li, ws)
		}
	}
	st.shrink(2, 1) // 1*4 ≤ 16: down to the smallest page
	for i := per; i < 17; i++ {
		st.push(3, watcher{CRef(300 + i), 3}) // the 17th outgrows the page
	}
	if got := st.freePages()[st.class(16)]; got != 2 {
		t.Fatalf("%d preallocated pages on the free chain after a shrink and a grow, want 2 (%v)", got, st.freePages())
	}
	if ws := st.list(3); len(ws) != 17 || ws[16].cref != 316 || st.list(2)[0].cref != 200 {
		t.Fatalf("lists corrupted by the page moves: %+v", ws)
	}
	st.release(4)
	if st.ref[4].cap != 0 || len(st.used) != lits-3 {
		t.Fatalf("release of a preallocated page: cap %d, %d used", st.ref[4].cap, len(st.used))
	}
}

// --- solver-level invariant tests -------------------------------------------

// watcherCensus counts, for every live clause in the arena, how many
// watcher entries reference it across all long and binary pages.
func watcherCensus(s *Solver) map[CRef]int {
	counts := make(map[CRef]int)
	for li := range s.watches.ref {
		for _, w := range s.watches.list(li) {
			if !s.db.deleted(w.cref) {
				counts[w.cref]++
			}
		}
		for _, bw := range s.binWatches.list(li) {
			counts[bw.cref]++
		}
	}
	return counts
}

// checkWatchCompleteness asserts the global two-watcher invariant: every
// live attached clause — problem or learnt — is referenced by exactly
// two watcher entries (no watcher lost, none duplicated). Valid between
// propagate calls.
func checkWatchCompleteness(t *testing.T, s *Solver) {
	t.Helper()
	counts := watcherCensus(s)
	live := 0
	for _, c := range s.clauses {
		if s.db.deleted(c) {
			continue
		}
		live++
		if counts[c] != 2 {
			t.Fatalf("problem clause %v has %d watchers, want 2", s.db.lits(c), counts[c])
		}
	}
	for tier := range s.db.roster {
		for _, c := range s.db.roster[tier] {
			if s.db.deleted(c) {
				t.Fatalf("deleted clause %v still on roster tier %d", s.db.lits(c), tier)
			}
			live++
			if counts[c] != 2 {
				t.Fatalf("learnt clause %v (tier %d) has %d watchers, want 2", s.db.lits(c), tier, counts[c])
			}
		}
	}
	// And nothing watches a clause outside the rosters/problem set
	// (dead watchers must reference only tombstoned clauses, which the
	// census already excluded).
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 2*live {
		t.Fatalf("%d watcher entries for %d live clauses (want %d): stray watchers on dead or foreign clauses", total, live, 2*live)
	}
}

// TestWatcherStoreNoLossAcrossSearch runs deletion-heavy searches and
// checks after every Solve slice that the paged store neither lost nor
// duplicated a watcher across the attach / lazy-detach / shrink churn.
func TestWatcherStoreNoLossAcrossSearch(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := gen.RandomKSAT(30, 120, 3, seed)
		s := FromFormula(f, Options{MaxLearnts: 5, MaxConflicts: 40})
		for round := 0; round < 50; round++ {
			if s.Solve() != Unknown {
				break
			}
			checkWatchConsistency(t, s)
			checkWatchCompleteness(t, s)
		}
		checkWatchConsistency(t, s)
		checkWatchCompleteness(t, s)
	}
}

// TestWatcherStoreConsistentAfterForcedGC mirrors the clause-arena
// relocation tests for the watcher pages: force compactions mid-search
// and check full watcher consistency and completeness on the relocated
// references.
func TestWatcherStoreConsistentAfterForcedGC(t *testing.T) {
	f := gen.Random3SATHard(150, 9)
	s := FromFormula(f, Options{MaxLearnts: 50, MaxConflicts: 200})
	for round := 0; round < 20; round++ {
		st := s.Solve()
		s.garbageCollect()
		checkWatchConsistency(t, s)
		checkWatchCompleteness(t, s)
		checkReasonConsistency(t, s)
		if st != Unknown {
			return
		}
	}
}

// TestWatcherStorePagesShrinkUnderChurn asserts the store actually
// recycles memory on a deletion-heavy run: after solving, some pages
// must have been freed and reused (the free chains were exercised), and
// the backing slice must stay within a small multiple of the live
// watcher population.
func TestWatcherStorePagesShrinkUnderChurn(t *testing.T) {
	f := gen.Random3SATHard(150, 9)
	s := FromFormula(f, Options{MaxLearnts: 50})
	if st := s.Solve(); st == Unknown {
		t.Fatal("instance must be decided")
	}
	live := 0
	for li := range s.watches.ref {
		live += int(s.watches.ref[li].n)
	}
	slack := len(s.watches.data)
	if live > 0 && slack > 8*live+1024 {
		t.Fatalf("backing slice holds %d slots for %d live watchers: shrink/free-list reuse not working", slack, live)
	}
}

// TestMidTierDemotionByTouchedBit checks the reduceDB satellite: mid
// clauses untouched between reductions move to the local tier (header
// tier bits and roster segment both), touched ones stay.
func TestMidTierDemotionByTouchedBit(t *testing.T) {
	s := New(10, Options{})
	mk := func(lbd int, lits ...int) CRef {
		cl := make([]cnf.Lit, len(lits))
		for i, d := range lits {
			cl[i] = cnf.FromDIMACS(d)
		}
		c := s.db.alloc(cl, true, false, lbd)
		s.db.addLearnt(c)
		s.attach(c)
		return c
	}
	touched := mk(4, 1, 2, 3)  // mid tier
	idle := mk(5, 4, 5, 6)     // mid tier
	core := mk(2, 7, 8, 9)     // core tier
	local := mk(9, 1, 5, 9, 2) // local tier
	if s.db.tier(touched) != tierMid || s.db.tier(core) != tierCore || s.db.tier(local) != tierLocal {
		t.Fatal("tier assignment from learn-time LBD is wrong")
	}
	// Fresh clauses are born touched; simulate one full reduction
	// interval in which only `touched` is bumped.
	for _, c := range []CRef{touched, idle, core, local} {
		s.db.clearTouched(c)
	}
	s.bumpClause(touched)
	s.reduceDB()
	if s.db.tier(idle) != tierLocal {
		t.Fatal("idle mid clause was not demoted to the local tier")
	}
	if s.db.tier(touched) != tierMid {
		t.Fatal("touched mid clause must stay in the mid tier")
	}
	if s.db.tier(core) != tierCore {
		t.Fatal("core clause must never be demoted")
	}
	if s.Stats.Demoted != 1 {
		t.Fatalf("Demoted = %d, want 1", s.Stats.Demoted)
	}
	found := false
	for _, c := range s.db.roster[tierLocal] {
		if c == idle {
			found = true
		}
	}
	if !found && !s.db.deleted(idle) {
		t.Fatal("demoted clause on neither the local roster nor deleted")
	}
	// Touched bits are an interval measure: reduceDB must have cleared
	// the survivor's bit.
	if s.db.touched(touched) {
		t.Fatal("reduceDB did not clear the touched bit on a mid survivor")
	}
}

// TestRosterRebuiltByGC forces deletions and a compaction and checks
// the per-tier rosters come back patched, tier-pure and tombstone-free.
func TestRosterRebuiltByGC(t *testing.T) {
	f := gen.Random3SATHard(150, 9)
	s := FromFormula(f, Options{MaxLearnts: 50})
	s.Solve()
	if s.Stats.Deleted == 0 {
		t.Fatal("test needs deletions to be meaningful")
	}
	s.garbageCollect()
	for tier := range s.db.roster {
		for _, c := range s.db.roster[tier] {
			if s.db.deleted(c) {
				t.Fatalf("tombstone on tier-%d roster after GC", tier)
			}
			if !s.db.learnt(c) || s.db.temp(c) {
				t.Fatalf("non-learnt clause on tier-%d roster", tier)
			}
			if s.db.tier(c) != tier {
				t.Fatalf("clause with tier bits %d filed on roster %d", s.db.tier(c), tier)
			}
		}
	}
	checkWatchCompleteness(t, s)
}
