package api

import (
	"encoding/json"
	"strconv"
)

// AppendJSON appends r's JSON encoding to dst and returns the extended
// buffer: the bytes json.Marshal(r) returns, byte for byte
// (FuzzAppendJSON), written field by field with strconv as a Request's are,
// so a megabyte matrix never goes through the reflective encoder. A kind,
// graph ID, variant, error code or error message that encoding/json would
// escape sends the whole response to json.Marshal instead. It is
// deliberately not a MarshalJSON, whose output encoding/json would scan
// again to compact it. dst grows as append grows it: a caller that wants
// one buffer of the right size asks JSONLen first.
func (r *Response) AppendJSON(dst []byte) []byte {
	if !r.plain() {
		return append(dst, r.marshal()...)
	}
	dst, _ = r.appendJSON(dst, true)
	return dst
}

// JSONLen returns the number of bytes AppendJSON appends: the response
// written into a stack buffer without its large arrays, plus a digit-count
// pass over each array.
func (r *Response) JSONLen() int {
	if !r.plain() {
		return len(r.marshal())
	}
	var space [1 << 10]byte
	b, arrays := r.appendJSON(space[:0], false)
	return len(b) + arrays
}

// plain reports whether every string r holds is one encoding/json writes
// as its own bytes.
func (r *Response) plain() bool {
	return plainString(r.Kind) && plainString(r.Graph) &&
		(r.APSP == nil || plainString(r.APSP.Variant)) &&
		(r.Error == nil || plainString(r.Error.Code) && plainString(r.Error.Message))
}

// marshal is json.Marshal of a copy of r: marshalling r itself would make
// every caller's Response escape to the heap.
func (r *Response) marshal() []byte {
	p := plainResponse(*r)
	b, err := json.Marshal(&p)
	if err != nil {
		// A Response holds no float, map, interface or marshaler.
		panic("api: encode response: " + err.Error())
	}
	return b
}

// appendJSON appends a plain r in Response's field order. With arrays
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
// reflective encoder or a box. A kind, graph ID or variant that
// encoding/json would escape (a quote, a backslash, a control, HTML or
// non-ASCII byte) sends the request to json.Marshal instead; no
// constructor's value has one, and ValidateGraphID refuses every such
// graph ID.
func (r Request) AppendJSON(dst []byte) []byte {
	if !plainString(r.Kind) || !plainString(r.Graph) || r.APSP != nil && !plainString(r.APSP.Variant) {
		b, err := json.Marshal(r)
		if err != nil {
			// A Request holds no float, map, interface or marshaler.
			panic("api: encode request: " + err.Error())
		}
		return append(dst, b...)
	}
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

// plainString reports whether encoding/json writes s as its own bytes
// between quotes: printable ASCII other than a quote, a backslash and the
// HTML bytes it escapes.
func plainString[T ~string](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !isTextByte(c) || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendString appends a plainString s between quotes.
func appendString[T ~string](dst []byte, s T) []byte {
	dst = append(append(dst, '"'), s...)
	return append(dst, '"')
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
