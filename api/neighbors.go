package api

import (
	"bytes"
	"encoding/json"
)

// NeighborLists is the per-node neighbour lists of a k-nearest or
// source-detection answer on the wire. Like Matrix it is its underlying
// type in everything but name - rows are []Neighbor, so indexing, range and
// passing it where a [][]Neighbor is wanted are unchanged - and exists for
// its decoder: every list lands in one capacity-clipped backing array, two
// allocations where the reflective decoder append-grows each list
// (DESIGN.md §11). Like Matrix it has no encoder of its own:
// Response.AppendJSON writes json.Marshal's bytes for it with strconv.
type NeighborLists [][]Neighbor

// UnmarshalJSON decodes the canonical form - an array of arrays of
// {"node":…,"dist":…,"hops":…,"first_hop":…} objects, the four keys once
// each in that order, integer literals that fit their field, whitespace
// anywhere between tokens - in two steps: count, then parse into arrays
// sized from the counts. Every other input (null, a reordered, missing,
// repeated, unknown or differently-cased key, a fraction, a string, invalid
// syntax) is handed to encoding/json's [][]Neighbor decoder, so what
// NeighborLists accepts, holds and reports are that decoder's by
// construction (FuzzNeighborsJSON).
func (l *NeighborLists) UnmarshalJSON(data []byte) error {
	if lists, end, ok := decodeNeighborLists(data, 0); ok && skipSpace(data, end) == len(data) {
		*l = lists
		return nil
	}
	return json.Unmarshal(data, (*[][]Neighbor)(l))
}

// decodeNeighborLists decodes the canonical lists that start at data[i]
// and returns them with the index after the closing bracket. Every '['
// after the first opens a list and every '{' a neighbour, so two byte
// counts up to the first "]]" bound both (see decodeMatrix).
func decodeNeighborLists(data []byte, i int) (NeighborLists, int, bool) {
	span := arraySpan(data, i, "]]")
	lists := make(NeighborLists, max(bytes.Count(span, []byte{'['})-1, 0))
	cells := make([]Neighbor, bytes.Count(span, []byte{'{'}))
	nr, end, ok := parseLists(data, i, lists, cells, parseNeighbor)
	return lists[:nr:nr], end, ok
}

// parseNeighbor reads the canonical neighbour object starting at data[i]
// and returns the index after its closing brace.
func parseNeighbor(data []byte, i int) (nb Neighbor, end int, ok bool) {
	var node, hops, firstHop int64
	if i, ok = expect(data, i, `{`); !ok {
		return nb, i, false
	}
	if node, i, ok = member(data, i, `"node"`, `,`); !ok {
		return nb, i, false
	}
	if nb.Dist, i, ok = member(data, i, `"dist"`, `,`); !ok {
		return nb, i, false
	}
	if hops, i, ok = member(data, i, `"hops"`, `,`); !ok {
		return nb, i, false
	}
	if firstHop, i, ok = member(data, i, `"first_hop"`, `}`); !ok {
		return nb, i, false
	}
	nb.Node, nb.Hops, nb.FirstHop = int(node), int(hops), int(firstHop)
	// A value its int field cannot hold (a 32-bit int) is encoding/json's to
	// refuse.
	return nb, i, int64(nb.Node) == node && int64(nb.Hops) == hops && int64(nb.FirstHop) == firstHop
}

// member reads `key : integer closer` starting at or after data[i], with
// whitespace allowed around every token, and returns the index after closer.
func member(data []byte, i int, key, closer string) (val int64, end int, ok bool) {
	if i, ok = expect(data, i, key); !ok {
		return 0, i, false
	}
	if i, ok = expect(data, i, `:`); !ok {
		return 0, i, false
	}
	if val, i, ok = parseCell(data, skipSpace(data, i)); !ok {
		return 0, i, false
	}
	i, ok = expect(data, i, closer)
	return val, i, ok
}

// expect skips whitespace and reports whether lit comes next, returning the
// index after it.
func expect(data []byte, i int, lit string) (int, bool) {
	i = skipSpace(data, i)
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}
