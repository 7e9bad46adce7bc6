package api

import (
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends r's JSON encoding to dst and returns the extended
// buffer: the bytes json.Marshal(r) returns, byte for byte
// (FuzzAppendJSON), written field by field with strconv as a Request's are,
// so a megabyte matrix never goes through the reflective encoder, and a
// string is escaped as encoding/json escapes it (appendString). It is
// deliberately not a MarshalJSON, whose output encoding/json would scan
// again to compact it. dst grows as append grows it: a caller that wants
// one buffer of the right size asks JSONLen first.
func (r *Response) AppendJSON(dst []byte) []byte {
	dst, _ = r.appendJSON(dst, true)
	return dst
}

// JSONLen returns the number of bytes AppendJSON appends: the response
// written into a stack buffer without its large arrays, plus a digit-count
// pass over each array.
func (r *Response) JSONLen() int {
	var space [1 << 10]byte
	b, arrays := r.appendJSON(space[:0], false)
	return len(b) + arrays
}

// appendJSON appends r in Response's field order. With arrays
// false it leaves out each large array (apsp/mssp/sssp "dist", knearest
// "neighbors", source_detection "detected") and returns their length.
func (r *Response) appendJSON(dst []byte, arrays bool) (_ []byte, arraysLen int) {
	dst = appendString(append(dst, `{"kind":`...), r.Kind)
	if r.Graph != "" {
		dst = appendString(append(dst, `,"graph":`...), r.Graph)
	}
	if p := r.SSSP; p != nil {
		dst = strconv.AppendInt(append(dst, `,"sssp":{"source":`...), int64(p.Source), 10)
		dst = append(dst, `,"dist":`...)
		if arrays {
			dst = appendInts(dst, p.Dist)
		} else {
			arraysLen += intsLen(p.Dist)
		}
		dst = strconv.AppendInt(append(dst, `,"iterations":`...), int64(p.Iterations), 10)
		dst = append(dst, '}')
	}
	if p := r.MSSP; p != nil {
		dst = appendInts(append(dst, `,"mssp":{"sources":`...), p.Sources)
		dst = append(dst, `,"dist":`...)
		if arrays {
			dst = p.Dist.appendJSON(dst)
		} else {
			arraysLen += p.Dist.jsonLen()
		}
		dst = append(dst, '}')
	}
	if p := r.APSP; p != nil {
		dst = appendString(append(dst, `,"apsp":{"variant":`...), p.Variant)
		dst = append(dst, `,"dist":`...)
		if arrays {
			dst = p.Dist.appendJSON(dst)
		} else {
			arraysLen += p.Dist.jsonLen()
		}
		dst = append(dst, '}')
	}
	if p := r.Distance; p != nil {
		dst = strconv.AppendInt(append(dst, `,"distance":{"from":`...), int64(p.From), 10)
		dst = strconv.AppendInt(append(dst, `,"to":`...), int64(p.To), 10)
		dst = strconv.AppendInt(append(dst, `,"distance":`...), p.Distance, 10)
		dst = strconv.AppendBool(append(dst, `,"reachable":`...), p.Reachable)
		dst = append(dst, '}')
	}
	if p := r.Diameter; p != nil {
		dst = strconv.AppendInt(append(dst, `,"diameter":{"estimate":`...), p.Estimate, 10)
		dst = append(dst, '}')
	}
	if p := r.KNearest; p != nil {
		dst = strconv.AppendInt(append(dst, `,"knearest":{"k":`...), int64(p.K), 10)
		dst = append(dst, `,"neighbors":`...)
		if arrays {
			dst = p.Neighbors.appendJSON(dst)
		} else {
			arraysLen += p.Neighbors.jsonLen()
		}
		dst = append(dst, '}')
	}
	if p := r.SourceDetection; p != nil {
		dst = strconv.AppendInt(append(dst, `,"source_detection":{"d":`...), int64(p.D), 10)
		dst = strconv.AppendInt(append(dst, `,"k":`...), int64(p.K), 10)
		dst = append(dst, `,"detected":`...)
		if arrays {
			dst = p.Detected.appendJSON(dst)
		} else {
			arraysLen += p.Detected.jsonLen()
		}
		dst = append(dst, '}')
	}
	if s := r.Stats; s != nil {
		dst = strconv.AppendInt(append(dst, `,"stats":{"total_rounds":`...), int64(s.TotalRounds), 10)
		dst = strconv.AppendInt(append(dst, `,"sim_rounds":`...), int64(s.SimRounds), 10)
		dst = strconv.AppendInt(append(dst, `,"messages":`...), s.Messages, 10)
		dst = strconv.AppendInt(append(dst, `,"words":`...), s.Words, 10)
		dst = append(dst, '}')
	}
	dst = strconv.AppendBool(append(dst, `,"cached":`...), r.Cached)
	if e := r.Error; e != nil {
		dst = appendString(append(dst, `,"error":{"code":`...), e.Code)
		dst = appendString(append(dst, `,"message":`...), e.Message)
		dst = append(dst, '}')
	}
	return append(dst, '}'), arraysLen
}

// AppendJSON appends r's JSON encoding to dst and returns the extended
// buffer: the bytes json.Marshal(r) returns, byte for byte
// (FuzzRequestJSON), written field by field with strconv - a request is a
// kind, a graph ID and a few integers - so a client sends one without the
// reflective encoder or a box.
func (r Request) AppendJSON(dst []byte) []byte {
	dst = appendString(append(dst, `{"kind":`...), r.Kind)
	if r.Graph != "" {
		dst = appendString(append(dst, `,"graph":`...), r.Graph)
	}
	if p := r.SSSP; p != nil {
		dst = strconv.AppendInt(append(dst, `,"sssp":{"source":`...), int64(p.Source), 10)
		dst = append(dst, '}')
	}
	if p := r.MSSP; p != nil {
		dst = appendInts(append(dst, `,"mssp":{"sources":`...), p.Sources)
		dst = append(dst, '}')
	}
	if p := r.APSP; p != nil {
		dst = append(dst, `,"apsp":{`...)
		if p.Variant != "" {
			dst = appendString(append(dst, `"variant":`...), p.Variant)
		}
		dst = append(dst, '}')
	}
	if p := r.Distance; p != nil {
		dst = strconv.AppendInt(append(dst, `,"distance":{"from":`...), int64(p.From), 10)
		dst = strconv.AppendInt(append(dst, `,"to":`...), int64(p.To), 10)
		dst = append(dst, '}')
	}
	if p := r.KNearest; p != nil {
		dst = strconv.AppendInt(append(dst, `,"knearest":{"k":`...), int64(p.K), 10)
		dst = append(dst, '}')
	}
	if p := r.SourceDetection; p != nil {
		dst = appendInts(append(dst, `,"source_detection":{"sources":`...), p.Sources)
		dst = strconv.AppendInt(append(dst, `,"d":`...), int64(p.D), 10)
		dst = strconv.AppendInt(append(dst, `,"k":`...), int64(p.K), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendString appends s as json.Marshal writes a string: between quotes,
// with a quote, a backslash, a control byte and the HTML bytes <, > and &
// escaped, U+2028 and U+2029 escaped, and each byte that is not part of
// valid UTF-8 written as \ufffd.
func appendString[T ~string](dst []byte, s T) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

func (m Matrix) appendJSON(dst []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, row := range m {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInts(dst, row)
	}
	return append(dst, ']')
}

func (m Matrix) jsonLen() int {
	if m == nil {
		return len("null")
	}
	n := len("[]") + max(len(m)-1, 0)
	for _, row := range m {
		n += intsLen(row)
	}
	return n
}

// appendInts appends v as encoding/json writes a []int64 or []int: null
// when nil.
func appendInts[T int | int64](dst []byte, v []T) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func intsLen(v []int64) int {
	if v == nil {
		return len("null")
	}
	n := len("[]") + max(len(v)-1, 0)
	for _, x := range v {
		n += intLen(x)
	}
	return n
}

// intLen is the length of strconv.FormatInt(x, 10).
func intLen(x int64) int {
	n, u := 1, uint64(x)
	if x < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

func (l NeighborLists) appendJSON(dst []byte) []byte {
	if l == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, list := range l {
		if i > 0 {
			dst = append(dst, ',')
		}
		if list == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, nb := range list {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = strconv.AppendInt(dst, int64(nb.Node), 10)
			dst = append(dst, `,"dist":`...)
			dst = strconv.AppendInt(dst, nb.Dist, 10)
			dst = append(dst, `,"hops":`...)
			dst = strconv.AppendInt(dst, int64(nb.Hops), 10)
			dst = append(dst, `,"first_hop":`...)
			dst = strconv.AppendInt(dst, int64(nb.FirstHop), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

func (l NeighborLists) jsonLen() int {
	if l == nil {
		return len("null")
	}
	n := len("[]") + max(len(l)-1, 0)
	for _, list := range l {
		if list == nil {
			n += len("null")
			continue
		}
		n += len("[]") + max(len(list)-1, 0) + len(list)*len(`{"node":,"dist":,"hops":,"first_hop":}`)
		for _, nb := range list {
			n += intLen(int64(nb.Node)) + intLen(nb.Dist) + intLen(int64(nb.Hops)) + intLen(int64(nb.FirstHop))
		}
	}
	return n
}
