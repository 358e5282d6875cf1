package cnf

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// MaxDIMACSVar bounds the variable index ParseDIMACS accepts. Lit packs
// var<<1|sign into an int32, so a larger variable would overflow into a
// wrong (possibly negative) literal silently; the parser rejects such
// input as malformed instead. (Found by FuzzDIMACS.)
const MaxDIMACSVar = 1<<29 - 1

// maxDIMACSLine bounds a line's length in bytes, its newline excluded:
// a line this long fails with bufio.ErrTooLong. The bound is the line
// buffer of the line-based reference parser (reference_test.go), so
// both accept the same inputs.
const maxDIMACSLine = 1 << 24

// asciiSpace marks the ASCII bytes that separate DIMACS tokens: the
// ones unicode.IsSpace (and so strings.Fields) reports.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParseDIMACS reads a formula in DIMACS CNF format. It tolerates missing
// or inconsistent "p cnf" headers (the variable count is grown to the
// maximum variable seen) but rejects malformed tokens, unterminated
// clauses at EOF, and literals beyond MaxDIMACSVar; literals exceeding
// the declared variable count are accepted with the count adjusted
// upward.
//
// Lines whose first non-blank byte is 'c' or '%' are comments and may
// hold any bytes. Every other line must be ASCII: a byte outside ASCII
// there is rejected, Unicode spaces included.
//
// The parse is one pass over the bytes. All literals land in one flat
// buffer and each clause is a sub-slice of it whose capacity equals its
// length, so appending to one clause never overwrites the next.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	data, err := io.ReadAll(r)
	return parseDIMACS(data, err)
}

// ParseDIMACSString parses a DIMACS CNF from a string without copying
// it.
func ParseDIMACSString(s string) (*Formula, error) {
	// The scanner only reads data, so viewing the string's bytes in
	// place is safe.
	return parseDIMACS(unsafe.Slice(unsafe.StringData(s), len(s)), nil)
}

// parseDIMACS scans data line by line. readErr, the error that ended
// reading data, is reported after every line read before it parsed.
func parseDIMACS(data []byte, readErr error) (*Formula, error) {
	f := New(0)
	// A literal takes at least one digit and one separator, so no input
	// holds more than (len+1)/2 of them: the buffer never grows, and a
	// clause's sub-slice stays in it.
	lits := make([]Lit, 0, (len(data)+1)/2)
	open := 0 // index in lits of the unterminated clause's first literal
	maxVar := 0
	for line := 1; len(data) > 0; line++ {
		ln := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(ln) >= maxDIMACSLine {
			return nil, bufio.ErrTooLong
		}
		j := 0
		for j < len(ln) && asciiSpace[ln[j]] {
			j++
		}
		if j == len(ln) {
			continue
		}
		switch ln[j] {
		case 'c', '%':
			continue
		case 'p':
			nv, nc, err := parseProblemLine(ln, line)
			if err != nil {
				return nil, err
			}
			f.EnsureVars(nv)
			if f.Clauses == nil && nc > 0 && nc <= (len(data)+1)/2 {
				f.Clauses = make([]Clause, 0, nc)
			}
			continue
		}
		for j < len(ln) {
			b := ln[j]
			if asciiSpace[b] {
				j++
				continue
			}
			tok := j
			neg := b == '-'
			if neg || b == '+' {
				j++
			}
			digits := j
			n := 0
			for ; j < len(ln); j++ {
				d := ln[j] - '0'
				if d > 9 {
					break
				}
				if n <= MaxDIMACSVar {
					n = n*10 + int(d)
				}
			}
			if j == digits || n > MaxDIMACSVar || (j < len(ln) && !asciiSpace[ln[j]]) {
				return nil, badLiteral(ln, tok, line)
			}
			if n == 0 {
				var c Clause // an empty clause stays nil, as Formula.AddClause(nil) stores it
				if len(lits) > open {
					c = lits[open:len(lits):len(lits)]
				}
				f.Clauses = append(f.Clauses, c)
				open = len(lits)
				continue
			}
			maxVar = max(maxVar, n)
			l := PosLit(Var(n))
			if neg {
				l |= 1
			}
			lits = append(lits, l)
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	if len(lits) > open {
		return nil, litErr("unterminated clause at end of input")
	}
	f.EnsureVars(maxVar)
	return f, nil
}

// parseProblemLine reads a "p cnf <vars> <clauses>" line: the variable
// count must lie in [0, MaxDIMACSVar], the clause count is only a hint
// and need only be an integer.
func parseProblemLine(ln []byte, line int) (nv, nc int, err error) {
	if err := asciiOnly(ln, line); err != nil {
		return 0, 0, err
	}
	text := strings.TrimSpace(string(ln))
	fields := strings.Fields(text)
	if len(fields) != 4 || fields[1] != "cnf" {
		return 0, 0, litErr("line %d: malformed problem line %q", line, text)
	}
	nv, err1 := strconv.Atoi(fields[2])
	nc, err2 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil || nv < 0 || nv > MaxDIMACSVar {
		return 0, 0, litErr("line %d: malformed problem line %q", line, text)
	}
	return nv, nc, nil
}

// badLiteral reports the malformed token starting at ln[at] — unless
// the line holds a byte outside ASCII, which is reported instead.
func badLiteral(ln []byte, at, line int) error {
	if err := asciiOnly(ln, line); err != nil {
		return err
	}
	end := at
	for end < len(ln) && !asciiSpace[ln[end]] {
		end++
	}
	return litErr("line %d: bad literal %q", line, ln[at:end])
}

// asciiOnly rejects a non-comment line holding a byte outside ASCII.
func asciiOnly(ln []byte, line int) error {
	for _, b := range ln {
		if b >= utf8.RuneSelf {
			return litErr("line %d: non-ASCII byte %#x outside a comment", line, b)
		}
	}
	return nil
}

// WriteDIMACS writes the formula in DIMACS CNF format.
func WriteDIMACS(w io.Writer, f *Formula) error {
	_, err := w.Write(appendDIMACS(nil, f))
	return err
}

// DIMACSString renders the formula in DIMACS CNF format as a string.
func DIMACSString(f *Formula) string {
	b := appendDIMACS(nil, f)
	// b is never written again, so the string may share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendDIMACS appends the DIMACS rendering of f to buf: comments, the
// problem line, then one line per clause with its literals each
// followed by a space and a closing "0".
func appendDIMACS(buf []byte, f *Formula) []byte {
	// Size the buffer once: a literal no larger than the variable count
	// takes at most its digits, a sign and a space; a clause adds "0\n".
	n := 32 + 2*len(f.Clauses) + (len(strconv.Itoa(f.NumVars()))+2)*f.NumLiterals()
	for _, c := range f.Comments {
		n += len(c) + 3
	}
	buf = slices.Grow(buf, n)
	for _, c := range f.Comments {
		buf = append(buf, "c "...)
		buf = append(buf, c...)
		buf = append(buf, '\n')
	}
	buf = append(buf, "p cnf "...)
	buf = strconv.AppendInt(buf, int64(f.NumVars()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(f.NumClauses()), 10)
	buf = append(buf, '\n')
	for _, c := range f.Clauses {
		for _, l := range c {
			buf = strconv.AppendInt(buf, int64(l.DIMACS()), 10)
			buf = append(buf, ' ')
		}
		buf = append(buf, "0\n"...)
	}
	return buf
}
