package cnf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"
)

// Fingerprint is a 256-bit canonical hash of a formula, suitable as a
// cache key: two formulas that differ only in clause order, literal
// order within clauses, duplicate literals inside a clause, duplicate
// clauses or comments hash identically. Formulas with different
// variable counts hash differently even when their clause sets agree
// (the variable count determines the shape of a reported model).
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// MarshalText implements encoding.TextMarshaler (lowercase hex), so a
// fingerprint can ride in JSON payloads, HTTP headers and durable
// store records without a custom codec at each site.
func (fp Fingerprint) MarshalText() ([]byte, error) {
	return []byte(fp.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler: the inverse of
// MarshalText, accepting upper- or lowercase hex.
func (fp *Fingerprint) UnmarshalText(text []byte) error {
	parsed, err := ParseFingerprint(string(text))
	if err != nil {
		return err
	}
	*fp = parsed
	return nil
}

// ParseFingerprint decodes the hex rendering produced by
// Fingerprint.String / MarshalText.
func ParseFingerprint(s string) (Fingerprint, error) {
	var fp Fingerprint
	if hex.DecodedLen(len(s)) != len(fp) {
		return fp, fmt.Errorf("cnf: fingerprint must be %d hex chars, got %d", hex.EncodedLen(len(fp)), len(s))
	}
	if _, err := hex.Decode(fp[:], []byte(s)); err != nil {
		return fp, fmt.Errorf("cnf: bad fingerprint: %w", err)
	}
	return fp, nil
}

// FormulaFingerprint computes the canonical Fingerprint of f.
//
// Canonicalization: every clause is normalized (literals sorted,
// duplicates removed), tautological clauses are dropped entirely (a
// tautology is the conjunct "true" — no constraint — and must NOT be
// encoded as anything that could collide with a genuine clause, in
// particular the empty clause, which means "false"), the normalized
// clauses are sorted lexicographically and deduplicated, and the
// result — preceded by the variable count — is hashed with SHA-256.
// The formula itself is never mutated.
//
// The normalized clauses share one flat literal buffer. The sort moves
// one uint64 per clause, a key built from its first two literals with
// the clause's index in the low bits (see sortKeys); only clauses whose
// keys tie are compared literal by literal. The hashed bytes are
// assembled in one buffer for a single SHA-256 pass.
func FormulaFingerprint(f *Formula) Fingerprint {
	flat := make([]Lit, 0, f.NumLiterals())
	// Clause i of the normalized formula is flat[bounds[i]:bounds[i+1]].
	bounds := make([]int, 1, len(f.Clauses)+1)
	for _, c := range f.Clauses {
		off := len(flat)
		flat = append(flat, c...)
		nc, taut := Clause(flat[off:]).NormalizeInPlace()
		if taut {
			flat = flat[:off] // "true" conjunct: contributes nothing
			continue
		}
		flat = flat[:off+len(nc)]
		bounds = append(bounds, len(flat))
	}
	clause := func(i uint64) []Lit { return flat[bounds[i]:bounds[i+1]] }
	order := sortKeys(len(bounds)-1, clause)

	buf := make([]byte, 0, 8+8*len(order)+4*len(flat))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.NumVars()))
	var prev []Lit
	for i, idx := range order {
		c := clause(idx)
		if i > 0 && slices.Equal(prev, c) {
			continue // duplicate clause
		}
		prev = c
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c)))
		for _, l := range c {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
		}
	}
	return sha256.Sum256(buf)
}

// sortKeys returns the indices 0..n-1 of the clauses clause(i) in
// slices.Compare order.
//
// Each clause becomes one uint64: its first literal with the int32
// sign bit flipped (so unsigned order is signed order) in the top 32
// bits, then its second literal plus one clamped into the bits the
// index leaves free (a missing literal reads 0, below every literal, so
// a prefix never sorts after its extensions), then the index. Both
// parts are monotone in the clause order, so sorting the uint64s — a
// sort without a comparison callback — orders every clause correctly
// except among clauses whose parts tie; each such run, short unless
// many clauses share their first two literals, is sorted again with
// slices.Compare.
func sortKeys(n int, clause func(uint64) []Lit) []uint64 {
	idxBits := bits.Len(uint(n))
	mask := uint64(1)<<idxBits - 1
	secondMax := int64(1)<<(32-idxBits) - 1 // 2^32 clauses would be 96 GB of headers
	keys := make([]uint64, n)
	for i := range keys {
		c := clause(uint64(i))
		var k uint64
		if len(c) > 0 {
			k = uint64(uint32(c[0])^(1<<31)) << 32
		}
		if len(c) > 1 {
			k |= uint64(min(max(int64(c[1])+1, 1), secondMax)) << idxBits
		}
		keys[i] = k | uint64(i)
	}
	radixSort(keys, idxBits)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi]&^mask == keys[lo]&^mask {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b uint64) int {
				return slices.Compare(clause(a&mask), clause(b&mask))
			})
		}
		lo = hi
	}
	for i := range keys {
		keys[i] &= mask
	}
	return keys
}

// radixSort sorts keys by their bits above the low skip bits, stably:
// least-significant byte first, skipping every byte position at which
// all keys agree.
func radixSort(keys []uint64, skip int) {
	if len(keys) < 2 {
		return
	}
	var and, or uint64 = ^uint64(0), 0
	for _, k := range keys {
		and &= k
		or |= k
	}
	varying := (and ^ or) >> skip
	tmp := make([]uint64, len(keys))
	src, dst := keys, tmp
	for shift := skip; varying != 0; shift, varying = shift+8, varying>>8 {
		if varying&0xff == 0 {
			continue
		}
		var count [256]int
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	copy(keys, src)
}
