package api

import (
	"bytes"
	"encoding/json"
	"math"
)

// Matrix is a dense distance matrix on the wire: a JSON array of arrays
// of integers, Unreachable (-1) for disconnected pairs. It is a
// [][]int64 in everything but name - index it, range over it, pass it
// where a [][]int64 is wanted - and exists for its decoder: an n×q
// answer lands in one backing array behind one slice of row headers, two
// allocations where the reflective decoder append-grows every row
// (DESIGN.md §11). Rows are capacity-clipped, so appending to one never
// writes into the next. Encoding is encoding/json's own.
type Matrix [][]int64

// UnmarshalJSON decodes the canonical form - nothing but brackets,
// commas, whitespace and integer literals that fit an int64 - in two
// steps: count, then parse into arrays sized from the counts. In that form
// every '[' after the first opens a row and every cell after the first
// follows a comma, so two byte counts give the number of rows exactly and
// the number of cells exactly when no row is empty (one spare cell per
// empty row, or for the empty matrix, otherwise). Every other input (null,
// a null row or cell, a fraction or exponent, a string, an overflow,
// invalid syntax) is handed to encoding/json's [][]int64 decoder, so what
// Matrix accepts, what it then holds and what it reports are that
// decoder's by construction (FuzzMatrixJSON).
func (m *Matrix) UnmarshalJSON(data []byte) error {
	rows := make(Matrix, max(bytes.Count(data, []byte{'['})-1, 0))
	cells := make([]int64, bytes.Count(data, []byte{','})+1)
	if parseMatrix(data, rows, cells) {
		*m = rows
		return nil
	}
	return json.Unmarshal(data, (*[][]int64)(m))
}

// parseMatrix parses data as a canonical matrix into rows, row r a
// capacity-clipped window of cells, and reports false on the first byte
// outside that grammar. rows and cells are sized by UnmarshalJSON's counts,
// which bound what any prefix of the grammar can hold.
func parseMatrix(data []byte, rows Matrix, cells []int64) bool {
	var ok bool
	nr, nc := 0, 0
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return false
	}
	i = skipSpace(data, i+1)
	for moreRows := i == len(data) || data[i] != ']'; moreRows; {
		if i == len(data) || data[i] != '[' {
			return false
		}
		i = skipSpace(data, i+1)
		start := nc
		for moreCells := i == len(data) || data[i] != ']'; moreCells; {
			if cells[nc], i, ok = parseCell(data, i); !ok {
				return false
			}
			nc++
			if i, moreCells, ok = separator(data, i); !ok {
				return false
			}
		}
		rows[nr] = cells[start:nc:nc]
		nr++
		// i is on the row's closing bracket.
		if i, moreRows, ok = separator(data, i+1); !ok {
			return false
		}
	}
	// i is on the matrix's closing bracket.
	return skipSpace(data, i+1) == len(data)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// separator reads what follows an element ending before i: a comma (more
// true; next is the start of the following element) or the closing bracket
// (next is the bracket itself); ok false on anything else.
func separator(data []byte, i int) (next int, more, ok bool) {
	i = skipSpace(data, i)
	if i == len(data) {
		return i, false, false
	}
	switch data[i] {
	case ',':
		return skipSpace(data, i+1), true, true
	case ']':
		return i, false, true
	}
	return i, false, false
}

// parseCell reads the integer literal starting at data[i] and returns the
// index after it. It refuses what JSON refuses (a bare sign, a leading
// zero) and what an int64 cannot hold; a fraction or exponent stops it
// short, and separator then refuses the byte that follows.
func parseCell(data []byte, i int) (val int64, end int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	first := i
	var u uint64
	for i < len(data) && data[i]-'0' <= 9 {
		u = u*10 + uint64(data[i]-'0')
		i++
	}
	// At most 19 digits: they cannot wrap a uint64, so u is exact.
	digits := i - first
	if digits == 0 || digits > 19 || (digits > 1 && data[first] == '0') {
		return 0, i, false
	}
	if neg {
		return -int64(u), i, u <= -math.MinInt64
	}
	return int64(u), i, u <= math.MaxInt64
}
