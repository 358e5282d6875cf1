package cnf

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the line-based DIMACS parser, the clause-sorting
// fingerprint and the fmt-based writer that the byte-level scanner, the
// flat-buffer fingerprint and the append-based writer replaced. They
// are the oracles of FuzzParseDIMACSReference and the fingerprint
// tests: slow, simple, and obviously right.

// parseDIMACSReference is the line-based parser: bufio.Scanner lines,
// strings.Fields tokens, strconv.Atoi literals.
func parseDIMACSReference(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	f := New(0)
	var cur Clause
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c', '%':
			continue
		case 'p':
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, litErr("line %d: malformed problem line %q", line, text)
			}
			nv, err1 := strconv.Atoi(fields[2])
			_, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 || nv > MaxDIMACSVar {
				return nil, litErr("line %d: malformed problem line %q", line, text)
			}
			f.EnsureVars(nv)
			continue
		}
		for _, tok := range strings.Fields(text) {
			n, err := strconv.Atoi(tok)
			if err != nil || n > MaxDIMACSVar || n < -MaxDIMACSVar {
				return nil, litErr("line %d: bad literal %q", line, tok)
			}
			if n == 0 {
				f.AddClause(cur)
				cur = nil
				continue
			}
			cur = append(cur, FromDIMACS(n))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) != 0 {
		return nil, litErr("unterminated clause at end of input")
	}
	return f, nil
}

// fingerprintReference is the clause-sorting fingerprint: normalize
// every clause into its own slice, sort.Slice them, and hash clause by
// clause.
func fingerprintReference(f *Formula) Fingerprint {
	norm := make([]Clause, 0, len(f.Clauses))
	for _, c := range f.Clauses {
		nc, taut := c.Normalize()
		if taut {
			continue
		}
		norm = append(norm, nc)
	}
	sort.Slice(norm, func(i, j int) bool { return slices.Compare(norm[i], norm[j]) < 0 })

	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(f.NumVars()))
	h.Write(buf[:])
	var prev Clause
	first := true
	for _, c := range norm {
		if !first && slices.Equal(prev, c) {
			continue
		}
		first = false
		prev = c
		binary.LittleEndian.PutUint64(buf[:], uint64(len(c)))
		h.Write(buf[:])
		for _, l := range c {
			binary.LittleEndian.PutUint32(buf[:4], uint32(l))
			h.Write(buf[:4])
		}
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return fp
}

// writeDIMACSReference is the fmt-based writer: one Fprintf per
// literal through a bufio.Writer.
func writeDIMACSReference(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	for _, c := range f.Comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars(), f.NumClauses()); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", l.DIMACS()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
