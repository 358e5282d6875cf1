package solver

import (
	"math"
	"slices"

	"repro/internal/cnf"
)

// This file implements the flat clause arena that backs the solver's
// clause database. Clauses are not individual heap objects: every clause
// lives inside one contiguous slice, addressed by a CRef word offset.
// The representation removes pointer chasing from the BCP hot loop and
// takes the entire clause database out of the Go garbage collector's
// scan set (the arena is a single pointer-free allocation).
//
// Arena layout of one clause starting at offset c:
//
//	word c+0: size<<8 | learnt<<0 | temp<<1 | deleted<<2 | touched<<3 | tier<<4 | occidx<<6 | pad<<7
//	word c+1: LBD (literal-block distance at learn time; 0 = problem clause)
//	word c+2: activity (compressed float, see actEncode)
//	word c+3 … c+3+size-1: the literals
//
// The arena is []cnf.Lit rather than []uint32 purely so that lits() can
// return a zero-copy typed sub-slice without unsafe; header words store
// uint32 bit patterns through lossless int32 casts.
//
// Besides the arena proper, the clauseDB owns the learnt-clause rosters:
// three flat CRef segments, one per glue tier (core/mid/local), which
// reduceDB iterates instead of one mixed roster. Roster membership is
// derivable from the packed headers (learnt && !temp, tier bits), so the
// relocating collector rebuilds all three segments in place during its
// single compaction sweep — rosters need no separate patching pass and
// can never drift out of sync with the arena.

// CRef addresses a clause as a word offset into the solver's clause
// arena. CRefUndef means "no clause" (a decision or a top-level fact).
// A CRef is only valid until the next arena compaction (garbageCollect);
// code that must hold a clause across a possible compaction holds it in
// a structure the collector patches (rosters, watcher pages, reason[]).
type CRef uint32

// CRefUndef is the null clause reference.
const CRefUndef CRef = ^CRef(0)

const (
	clsHdrWords = 3
	flagLearnt  = 1 << 0
	flagTemp    = 1 << 1
	flagDeleted = 1 << 2
	flagTouched = 1 << 3 // bumped since the last reduceDB round
	tierShift   = 4
	tierMask    = 3 << tierShift
	flagOccIdx  = 1 << 6 // entered into the inprocessing occurrence index
	flagPad     = 1 << 7 // not a clause: filler left by an in-place shrink
	flagBits    = 8
)

// Learnt-clause roster tiers. A clause's tier is assigned from its
// learn-time LBD (tierOfLBD) and only ever moves downward: reduceDB
// demotes a mid clause that was not touched since the last reduction to
// the local tier, where it competes on activity.
const (
	tierCore  = iota // LBD ≤ coreLBDMax: kept forever, never scanned by reduceDB
	tierMid          // LBD ≤ midLBDMax: kept while touched between reductions
	tierLocal        // the rest: compete on activity every reduction
	numTiers
)

// tierOfLBD maps a learn-time LBD to its roster tier.
func tierOfLBD(lbd int) int {
	switch {
	case lbd <= coreLBDMax:
		return tierCore
	case lbd <= midLBDMax:
		return tierMid
	default:
		return tierLocal
	}
}

// clauseDB is the arena plus the bookkeeping its relocating garbage
// collector needs. Deleted clauses stay in place (their headers keep the
// traversal intact) until compact() squeezes them out.
type clauseDB struct {
	arena  []cnf.Lit
	wasted int // words occupied by deleted clauses; the GC trigger

	// spare is the arena the last compaction emptied, kept (length 0)
	// as the next compaction's destination: collections ping-pong
	// between two buffers instead of allocating one each.
	spare []cnf.Lit

	// roster holds every live learnt (non-temp) clause, segmented by
	// glue tier. Compaction rebuilds the segments from clause headers;
	// reduceDB compacts them in place as it tombstones.
	roster [numTiers][]CRef
}

// alloc appends a clause to the arena and returns its reference. Learnt
// clauses start in the tier their learn-time LBD selects and with the
// touched bit set, so a clause recorded just before a reduction is not
// instantly demoted as "idle".
func (db *clauseDB) alloc(lits []cnf.Lit, learnt, temp bool, lbd int) CRef {
	c := CRef(len(db.arena))
	hdr := uint32(len(lits)) << flagBits
	if learnt {
		hdr |= flagLearnt | flagTouched | uint32(tierOfLBD(lbd))<<tierShift
	}
	if temp {
		hdr |= flagTemp
	}
	if need := clsHdrWords + len(lits); cap(db.arena)-len(db.arena) < need {
		// Double: append's 1.25x steps would copy a growing learnt
		// database several times over between two collections.
		db.arena = slices.Grow(db.arena, cap(db.arena)+need)
	}
	db.arena = append(db.arena, cnf.Lit(int32(hdr)), cnf.Lit(int32(uint32(lbd))), 0)
	db.arena = append(db.arena, lits...)
	return c
}

// addLearnt enters a freshly allocated learnt clause into the roster
// segment of its tier. The caller must not add temp clauses (NoLearning
// antecedents live outside the rosters and die with their assignment).
func (db *clauseDB) addLearnt(c CRef) {
	db.roster[db.tier(c)] = append(db.roster[db.tier(c)], c)
}

// learntCount returns the number of live learnt clauses across all
// roster tiers (the quantity MaxLearnts-style growth policies bound).
func (db *clauseDB) learntCount() int {
	return len(db.roster[tierCore]) + len(db.roster[tierMid]) + len(db.roster[tierLocal])
}

func (db *clauseDB) header(c CRef) uint32 { return uint32(db.arena[c]) }

// size returns the number of literals of clause c.
func (db *clauseDB) size(c CRef) int { return int(db.header(c) >> flagBits) }

// lits returns the clause's literal slice, aliasing the arena: writes
// through it (watched-literal swaps) update the clause in place. The
// slice is invalidated by the next alloc or garbageCollect.
func (db *clauseDB) lits(c CRef) []cnf.Lit {
	i := int(c) + clsHdrWords
	return db.arena[i : i+int(db.header(c)>>flagBits) : i+int(db.header(c)>>flagBits)]
}

func (db *clauseDB) learnt(c CRef) bool  { return db.header(c)&flagLearnt != 0 }
func (db *clauseDB) temp(c CRef) bool    { return db.header(c)&flagTemp != 0 }
func (db *clauseDB) deleted(c CRef) bool { return db.header(c)&flagDeleted != 0 }

// touched reports whether the clause was bumped (used as an antecedent
// in conflict analysis) since the last reduceDB round.
func (db *clauseDB) touched(c CRef) bool { return db.header(c)&flagTouched != 0 }

func (db *clauseDB) setTouched(c CRef) {
	db.arena[c] = cnf.Lit(int32(db.header(c) | flagTouched))
}

func (db *clauseDB) clearTouched(c CRef) {
	db.arena[c] = cnf.Lit(int32(db.header(c) &^ uint32(flagTouched)))
}

// occIndexed reports whether inprocessing entered the clause into its
// occurrence index (the flag prevents double insertion across rounds;
// compact clears it, because a relocation invalidates the whole index).
func (db *clauseDB) occIndexed(c CRef) bool { return db.header(c)&flagOccIdx != 0 }

func (db *clauseDB) setOccIndexed(c CRef) {
	db.arena[c] = cnf.Lit(int32(db.header(c) | flagOccIdx))
}

// shrinkTo rewrites clause c in place to the m-literal prefix currently
// stored at positions [0, m) (the caller has already compacted the kept
// literals there). The freed tail words become a pad pseudo-entry — a
// one-word header with flagPad whose size field counts the extra filler
// words — so the arena stays linearly traversable; compact() reclaims the
// pad like any tombstone. The recorded LBD is capped at the new size.
func (db *clauseDB) shrinkTo(c CRef, m int) {
	n := db.size(c)
	if m >= n {
		return
	}
	hdr := db.header(c)&((1<<flagBits)-1) | uint32(m)<<flagBits
	db.arena[c] = cnf.Lit(int32(hdr))
	if lbd := db.lbd(c); lbd > m && lbd != 0 {
		db.arena[c+1] = cnf.Lit(int32(uint32(m)))
	}
	pad := int(c) + clsHdrWords + m
	k := n - m
	db.arena[pad] = cnf.Lit(int32(uint32(flagPad|flagDeleted) | uint32(k-1)<<flagBits))
	db.wasted += k
}

// tier returns the clause's roster tier (meaningful for learnt clauses).
func (db *clauseDB) tier(c CRef) int { return int(db.header(c)&tierMask) >> tierShift }

// setTier rewrites the clause's tier bits (reduceDB demotion). The
// caller also moves the CRef between roster segments.
func (db *clauseDB) setTier(c CRef, t int) {
	db.arena[c] = cnf.Lit(int32(db.header(c)&^uint32(tierMask) | uint32(t)<<tierShift))
}

// markDeleted tombstones the clause; the words are reclaimed by the next
// compaction. Watchers referencing it are dropped lazily.
func (db *clauseDB) markDeleted(c CRef) {
	db.arena[c] = cnf.Lit(int32(db.header(c) | flagDeleted))
	db.wasted += clsHdrWords + db.size(c)
}

// lbd returns the literal-block distance recorded at learn time.
func (db *clauseDB) lbd(c CRef) int { return int(uint32(db.arena[c+1])) }

// Clause activities are stored as float32 bit patterns in one header
// word; float32 resolution is ample for a deletion-ordering heuristic.
func (db *clauseDB) act(c CRef) float64 {
	return float64(math.Float32frombits(uint32(db.arena[c+2])))
}

func (db *clauseDB) setAct(c CRef, a float64) {
	db.arena[c+2] = cnf.Lit(int32(math.Float32bits(float32(a))))
}

// compact copies every live clause into the spare arena (a fresh one
// when the spare is too small) and leaves a forwarding address in the
// old clause's LBD slot (the copy is taken first, so the new clause
// keeps its real LBD). The caller patches all outstanding CRefs through
// forward() and then installs the new arena with adopt.
//
// The learnt rosters are rebuilt in place during the same sweep: every
// surviving learnt (non-temp) clause is re-entered into its tier segment
// at its post-compaction address, so the segments come out compacted,
// patched and ordered by arena position in one pass — the caller never
// patches rosters itself.
func (db *clauseDB) compact() []cnf.Lit {
	newArena := db.spare
	if cap(newArena) < len(db.arena)-db.wasted {
		// As roomy as the arena it replaces: the survivors fit, with
		// the headroom the search had grown into.
		newArena = make([]cnf.Lit, 0, cap(db.arena))
	}
	for t := range db.roster {
		db.roster[t] = db.roster[t][:0]
	}
	for c := 0; c < len(db.arena); {
		hdr := uint32(db.arena[c])
		if hdr&flagPad != 0 {
			// Filler left by an in-place shrink: one header word plus
			// size extra words, never live.
			c += 1 + int(hdr>>flagBits)
			continue
		}
		span := clsHdrWords + int(hdr>>flagBits)
		if hdr&flagDeleted == 0 {
			nc := len(newArena)
			newArena = append(newArena, db.arena[c:c+span]...)
			// Relocation invalidates the inprocessing occurrence index
			// (the caller drops it); clear the membership flag with it.
			newArena[nc] = cnf.Lit(int32(hdr &^ uint32(flagOccIdx)))
			db.arena[c+1] = cnf.Lit(int32(uint32(nc)))
			if hdr&flagLearnt != 0 && hdr&flagTemp == 0 {
				t := int(hdr&tierMask) >> tierShift
				db.roster[t] = append(db.roster[t], CRef(nc))
			}
		}
		c += span
	}
	return newArena
}

// adopt installs the arena compact returned; the one it replaces
// becomes the spare.
func (db *clauseDB) adopt(newArena []cnf.Lit) {
	db.spare, db.arena = db.arena[:0], newArena
	db.wasted = 0
}

// forward returns the post-compaction address of a live clause. Valid
// only between compact() and the arena swap, and only for clauses that
// were not deleted.
func (db *clauseDB) forward(c CRef) CRef { return CRef(uint32(db.arena[c+1])) }
