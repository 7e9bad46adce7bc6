package api

import (
	"encoding/json"
	"strconv"
	"sync"
)

// AppendJSON appends r's JSON encoding to dst and returns the extended
// buffer: the bytes json.Marshal(r) returns, byte for byte
// (FuzzAppendJSON). encoding/json writes the envelope with every large
// array cut down to []; the arrays themselves (apsp/mssp/sssp "dist",
// knearest "neighbors", source_detection "detected" - the ones
// UnmarshalJSON parses in place) are appended with strconv where they were
// cut, so a megabyte matrix never goes through the reflective encoder. It
// is deliberately not a MarshalJSON, whose output encoding/json would scan
// again to compact it. dst grows as append grows it: a caller that wants
// one buffer of the right size asks JSONLen first.
func (r *Response) AppendJSON(dst []byte) []byte {
	e := r.envelope()
	prev := 0
	for _, c := range e.cuts {
		dst = append(dst, e.body[prev:c.at]...)
		dst = r.appendArray(dst, c.array)
		prev = c.at + len("[]")
	}
	dst = append(dst, e.body[prev:]...)
	envelopes.Put(e)
	return dst
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

// JSONLen returns the number of bytes AppendJSON appends: the envelope's,
// with each cut's [] replaced by a digit-count pass over its array.
func (r *Response) JSONLen() int {
	e := r.envelope()
	n := len(e.body)
	for _, c := range e.cuts {
		n += r.arrayLen(c.array) - len("[]")
	}
	envelopes.Put(e)
	return n
}

// envelope is a Response encoded with its large arrays cut: body is what
// encoding/json writes for it, cuts says where each array goes and which it
// is, in body order. The copies of the response and of its results it is
// encoded from are recycled with the bytes, so a warm encode allocates
// nothing.
type envelope struct {
	enc  *json.Encoder // writes into body
	body []byte
	cuts []cut

	plain  plainResponse
	sssp   SSSPResult
	mssp   MSSPResult
	apsp   APSPResult
	knear  KNearestResult
	detect SourceDetectionResult
}

// cut is the offset of one large array's [] in an envelope's body.
type cut struct {
	at    int
	array largeArray
}

var envelopes = sync.Pool{New: func() interface{} {
	e := new(envelope)
	e.enc = json.NewEncoder(e)
	return e
}}

func (e *envelope) Write(p []byte) (int, error) {
	e.body = append(e.body, p...)
	return len(p), nil
}

// envelope encodes r with every non-nil large array replaced by an empty
// one - which encodes as [] where a nil one encodes as null - then walks
// the bytes to those []s. Hand it back to envelopes when done.
func (r *Response) envelope() *envelope {
	e := envelopes.Get().(*envelope)
	e.plain = plainResponse(*r)
	arrays := 0
	if r.SSSP != nil && r.SSSP.Dist != nil {
		e.sssp, e.plain.SSSP = *r.SSSP, &e.sssp
		e.sssp.Dist, arrays = []int64{}, arrays+1
	}
	if r.MSSP != nil && r.MSSP.Dist != nil {
		e.mssp, e.plain.MSSP = *r.MSSP, &e.mssp
		e.mssp.Dist, arrays = Matrix{}, arrays+1
	}
	if r.APSP != nil && r.APSP.Dist != nil {
		e.apsp, e.plain.APSP = *r.APSP, &e.apsp
		e.apsp.Dist, arrays = Matrix{}, arrays+1
	}
	if r.KNearest != nil && r.KNearest.Neighbors != nil {
		e.knear, e.plain.KNearest = *r.KNearest, &e.knear
		e.knear.Neighbors, arrays = NeighborLists{}, arrays+1
	}
	if r.SourceDetection != nil && r.SourceDetection.Detected != nil {
		e.detect, e.plain.SourceDetection = *r.SourceDetection, &e.detect
		e.detect.Detected, arrays = NeighborLists{}, arrays+1
	}
	e.body = e.body[:0]
	err := e.enc.Encode(&e.plain)
	// Drop what r points to: a pooled envelope must not keep an answer alive.
	e.plain, e.sssp, e.mssp, e.apsp = plainResponse{}, SSSPResult{}, MSSPResult{}, APSPResult{}
	e.knear, e.detect = KNearestResult{}, SourceDetectionResult{}
	if err != nil {
		// A Response holds no float, map, interface or marshaler.
		panic("api: encode response: " + err.Error())
	}
	e.body = e.body[:len(e.body)-1] // Encode's newline
	e.cuts = e.cuts[:0]
	walkObject(e.body, 0, func(result []byte, at int) (int, bool) {
		if at == len(e.body) || e.body[at] != '{' {
			return skipValue(e.body, at)
		}
		return walkObject(e.body, at, func(member []byte, at int) (int, bool) {
			if a := largeArrayAt(result, member); a != noArray && at < len(e.body) && e.body[at] == '[' {
				e.cuts = append(e.cuts, cut{at, a})
			}
			return skipValue(e.body, at)
		})
	})
	if len(e.cuts) != arrays {
		panic("api: encode response: " + strconv.Itoa(arrays) + " large arrays, " + strconv.Itoa(len(e.cuts)) + " found in " + string(e.body))
	}
	return e
}

// appendArray appends r's large array a the way encoding/json would.
func (r *Response) appendArray(dst []byte, a largeArray) []byte {
	switch a {
	case ssspDist:
		return appendInts(dst, r.SSSP.Dist)
	case msspDist:
		return r.MSSP.Dist.appendJSON(dst)
	case apspDist:
		return r.APSP.Dist.appendJSON(dst)
	case knearestNeighbors:
		return r.KNearest.Neighbors.appendJSON(dst)
	case detectedSources:
		return r.SourceDetection.Detected.appendJSON(dst)
	}
	return dst
}

// arrayLen is the length of what appendArray appends.
func (r *Response) arrayLen(a largeArray) int {
	switch a {
	case ssspDist:
		return intsLen(r.SSSP.Dist)
	case msspDist:
		return r.MSSP.Dist.jsonLen()
	case apspDist:
		return r.APSP.Dist.jsonLen()
	case knearestNeighbors:
		return r.KNearest.Neighbors.jsonLen()
	case detectedSources:
		return r.SourceDetection.Detected.jsonLen()
	}
	return 0
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
