package api

import "encoding/json"

// plainResponse is Response without its decoder: what encoding/json makes
// of a body on its own, and so both the fallback and the oracle
// (FuzzResponseJSON) of UnmarshalJSON.
type plainResponse Response

// UnmarshalJSON decodes a response in one pass over its one large array.
// A served apsp answer is a few hundred bytes of envelope around megabytes
// of matrix; encoding/json scans all of it to validate it, again to find
// where each value ends, and a third time in Matrix.UnmarshalJSON to parse
// it. Here the envelope is walked down to that array (apsp/mssp/sssp
// "dist", knearest "neighbors", source_detection "detected"), the array is
// parsed where it lies by the decoder its type already has, and what is
// left - the body with the array cut down to [] - goes to encoding/json,
// which validates and decodes it as it always did.
//
// The walk takes only what it can be sure of: an object whose keys at both
// levels are plain [a-z_]* (so a key matches a field exactly or not at all,
// where encoding/json would also fold case), the array's key and its
// result's key not repeated after it, the array in its canonical form. On
// anything else, and on any error, the whole input goes to encoding/json
// instead, so what a Response accepts, holds and reports are that decoder's
// by construction. Callers holding a whole body may call it directly;
// json.Unmarshal reaches it too, after its own two scans.
func (r *Response) UnmarshalJSON(data []byte) error {
	if set, start, end := findLargeArray(data); set != nil {
		rest := make([]byte, 0, start+len("[]")+len(data)-end)
		rest = append(append(append(rest, data[:start]...), "[]"...), data[end:]...)
		if json.Unmarshal(rest, (*plainResponse)(r)) == nil {
			set(r)
			return nil
		}
	}
	return json.Unmarshal(data, (*plainResponse)(r))
}

// findLargeArray walks a response body to its large array and decodes it:
// data[start:end] is the array and set stores the decoded value in the
// field it belongs to, once the rest of the body has been decoded (the
// result struct the field lives in exists by then: its key held an object).
// set is nil when the body has no such array or is not in the form
// UnmarshalJSON describes.
func findLargeArray(data []byte) (set func(*Response), start, end int) {
	var result, member []byte // the keys the array was found under
	last, ok := walkObject(data, 0, func(key []byte, at int) (int, bool) {
		if set != nil {
			// The array is decoded; only its result's key coming back could
			// still change what it means.
			if string(key) == string(result) {
				return at, false
			}
			return skipValue(data, at)
		}
		if at == len(data) || data[at] != '{' {
			return skipValue(data, at)
		}
		return walkObject(data, at, func(inner []byte, at int) (int, bool) {
			switch {
			case set != nil && string(inner) == string(member):
				return at, false
			case set != nil || at == len(data) || data[at] != '[':
				return skipValue(data, at)
			}
			s, e, ok := decodeLargeArray(key, inner, data, at)
			if s == nil {
				return skipValue(data, at)
			}
			set, start, end, result, member = s, at, e, key, inner
			return e, ok
		})
	})
	if !ok || skipSpace(data, last) != len(data) {
		return nil, 0, 0
	}
	return set, start, end
}

// largeArray names a field that carries an answer's large array.
type largeArray uint8

const (
	noArray largeArray = iota
	ssspDist
	msspDist
	apspDist
	knearestNeighbors
	detectedSources
)

// largeArrayAt reports which large array the member key of the result key
// holds, noArray when it holds none.
func largeArrayAt(result, member []byte) largeArray {
	switch {
	case string(result) == "sssp" && string(member) == "dist":
		return ssspDist
	case string(result) == "mssp" && string(member) == "dist":
		return msspDist
	case string(result) == "apsp" && string(member) == "dist":
		return apspDist
	case string(result) == "knearest" && string(member) == "neighbors":
		return knearestNeighbors
	case string(result) == "source_detection" && string(member) == "detected":
		return detectedSources
	}
	return noArray
}

// decodeLargeArray decodes the array at data[i] when result.member is a
// field that carries an answer's large array; set is nil when it is not.
func decodeLargeArray(result, member, data []byte, i int) (set func(*Response), end int, ok bool) {
	switch largeArrayAt(result, member) {
	case ssspDist:
		v, end, ok := decodeVector(data, i)
		return func(r *Response) { r.SSSP.Dist = v }, end, ok
	case msspDist:
		m, end, ok := decodeMatrix(data, i)
		return func(r *Response) { r.MSSP.Dist = m }, end, ok
	case apspDist:
		m, end, ok := decodeMatrix(data, i)
		return func(r *Response) { r.APSP.Dist = m }, end, ok
	case knearestNeighbors:
		l, end, ok := decodeNeighborLists(data, i)
		return func(r *Response) { r.KNearest.Neighbors = l }, end, ok
	case detectedSources:
		l, end, ok := decodeNeighborLists(data, i)
		return func(r *Response) { r.SourceDetection.Detected = l }, end, ok
	}
	return nil, i, false
}

// walkObject walks the members of the object at or after data[i]: visit
// gets each key (the bytes between its quotes) with the index its value
// starts at, and returns the index after that value. The walk stops, ok
// false, at a key with anything but [a-z_] in it, at anything that is not
// the shape of an object, and when visit says so; otherwise end is the
// index after the closing brace. It checks shape, not validity: the bytes
// it passes over are encoding/json's to validate.
func walkObject(data []byte, i int, visit func(key []byte, at int) (int, bool)) (end int, ok bool) {
	if i, ok = expect(data, i, `{`); !ok {
		return i, false
	}
	if i = skipSpace(data, i); i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for {
		if i, ok = expect(data, i, `"`); !ok {
			return i, false
		}
		first := i
		for i < len(data) && (data[i] >= 'a' && data[i] <= 'z' || data[i] == '_') {
			i++
		}
		if i == len(data) || data[i] != '"' {
			return i, false
		}
		key := data[first:i]
		if i, ok = expect(data, i+1, `:`); !ok {
			return i, false
		}
		if i, ok = visit(key, skipSpace(data, i)); !ok {
			return i, false
		}
		if i = skipSpace(data, i); i == len(data) {
			return i, false
		}
		switch data[i] {
		case ',':
			i++
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// skipValue returns the index after the JSON value starting at data[i]: a
// string to its closing quote, an object or array to its matching bracket
// (strings inside passed over whole), anything else to the next delimiter.
// Like walkObject it finds extents of valid JSON and promises nothing about
// the rest.
func skipValue(data []byte, i int) (int, bool) {
	depth := 0
	for i < len(data) {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if i >= len(data) {
				return len(data), false
			}
			i++
		case '{', '[':
			depth++
			i++
		case '}', ']':
			if depth == 0 {
				return i, false // no value here at all
			}
			depth--
			i++
		case ',', ':', ' ', '\n', '\t', '\r':
			if depth == 0 {
				return i, false
			}
			i++
		default:
			for i < len(data) && !isDelimiter(data[i]) {
				i++
			}
		}
		if depth == 0 {
			return i, true
		}
	}
	return i, false
}

// isDelimiter reports whether c ends a JSON number or literal.
func isDelimiter(c byte) bool {
	switch c {
	case ',', ']', '}', ':', '"', '{', '[', ' ', '\n', '\t', '\r':
		return true
	}
	return false
}
