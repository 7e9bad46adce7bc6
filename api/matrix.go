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
// writes into the next. It has no encoder of its own: json.Marshal writes
// it reflectively, and Response.AppendJSON writes the same bytes with
// strconv.
type Matrix [][]int64

// UnmarshalJSON decodes the canonical form - nothing but brackets,
// commas, whitespace and integer literals that fit an int64 - in two
// steps: count, then parse into arrays sized from the counts. Every other
// input (null, a null row or cell, a fraction or exponent, a string, an
// overflow, invalid syntax) is handed to encoding/json's [][]int64 decoder,
// so what Matrix accepts, what it then holds and what it reports are that
// decoder's by construction (FuzzMatrixJSON).
func (m *Matrix) UnmarshalJSON(data []byte) error {
	if rows, end, ok := decodeMatrix(data, 0); ok && skipSpace(data, end) == len(data) {
		*m = rows
		return nil
	}
	return json.Unmarshal(data, (*[][]int64)(m))
}

// decodeMatrix decodes the canonical matrix that starts at data[i] and
// returns it with the index after its closing bracket; whatever follows is
// the caller's. In the canonical form every '[' after the first opens a row
// and every cell after the first follows a comma, so two byte counts bound
// the rows and the cells - exactly when no row is empty - over the bytes
// the parse can read (arraySpan): up to the first "]]", which ends a
// canonical matrix and ends the parse of anything else, so the tail of a
// response or a batch (Response.UnmarshalJSON) adds no cell.
func decodeMatrix(data []byte, i int) (Matrix, int, bool) {
	span := arraySpan(data, i, "]]")
	rows := make(Matrix, max(bytes.Count(span, []byte{'['})-1, 0))
	cells := make([]int64, bytes.Count(span, []byte{','})+1)
	nr, end, ok := parseLists(data, i, rows, cells, parseCell)
	return rows[:nr:nr], end, ok
}

// decodeList is decodeMatrix for one row - the []int64 of an sssp answer,
// a source list - which the first ']' ends: one slice of exactly its
// length, [] a non-nil empty one.
func decodeList[T any](data []byte, i int, elem func([]byte, int) (T, int, bool)) ([]T, int, bool) {
	n := 0
	if j := skipSpace(data, i+1); j < len(data) && data[j] != ']' {
		n = bytes.Count(arraySpan(data, i, "]"), []byte{','}) + 1
	}
	cells := make([]T, n)
	got, end, ok := parseList(data, i, cells, 0, elem)
	return cells[:got:got], end, ok
}

// arraySpan is data[i:] up to and including the first closer, the bytes a
// decoder's counts run over: no parse of an array at data[i] reads past it,
// since in every state of the grammar the parse meets closer it either ends
// the array or fails. Without closer it is all of data[i:].
func arraySpan(data []byte, i int, closer string) []byte {
	if k := bytes.Index(data[i:], []byte(closer)); k >= 0 {
		return data[i : i+k+len(closer)]
	}
	return data[i:]
}

// parseLists parses the array of arrays of elements at data[i] into rows,
// row r a capacity-clipped window of cells, and returns the number of rows
// and the index after the closing bracket; ok is false from the first byte
// outside that grammar. The caller sizes rows and cells to bound what any
// prefix of the grammar can hold.
func parseLists[T any](data []byte, i int, rows [][]T, cells []T, elem func([]byte, int) (T, int, bool)) (nr, end int, ok bool) {
	if i >= len(data) || data[i] != '[' {
		return 0, i, false
	}
	nc := 0
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != ']'; more; {
		start := nc
		if nc, i, ok = parseList(data, i, cells, nc, elem); !ok {
			return nr, i, false
		}
		rows[nr] = cells[start:nc:nc]
		nr++
		if i, more, ok = separator(data, i); !ok {
			return nr, i, false
		}
	}
	// i is on the closing bracket.
	return nr, i + 1, true
}

// parseList parses the array of elements at data[i] into cells[nc:] and
// returns the next free cell and the index after the closing bracket.
func parseList[T any](data []byte, i int, cells []T, nc int, elem func([]byte, int) (T, int, bool)) (int, int, bool) {
	if i >= len(data) || data[i] != '[' {
		return nc, i, false
	}
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != ']'; more; {
		v, next, ok := elem(data, i)
		if !ok {
			return nc, next, false
		}
		cells[nc] = v
		nc++
		i = next
		if i, more, ok = separator(data, i); !ok {
			return nc, i, false
		}
	}
	return nc, i + 1, true
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
