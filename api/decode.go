package api

import "encoding/json"

// plainResponse is Response without its decoder: what encoding/json makes
// of a body on its own, and so both the fallback and the oracle
// (FuzzResponseJSON) of UnmarshalJSON.
type plainResponse Response

// UnmarshalJSON decodes a response in one walk over its bytes. A served
// apsp answer is a few hundred bytes of envelope around megabytes of
// matrix; encoding/json scans all of it to validate it, again to find where
// each value ends, and a third time in Matrix.UnmarshalJSON to parse it,
// and a point answer's envelope costs it a dozen objects. Here the
// envelope is walked key by key: every scalar is parsed where it lies, the
// kind, variant and error code are matched against their constants, and
// the one large array (apsp/mssp/sssp "dist", knearest "neighbors",
// source_detection "detected") is parsed by the decoder its type already
// has. A response allocates only what it holds.
//
// The walk takes only the canonical form json.Marshal writes: objects
// whose keys are Response's own, plain [a-z_]* (so a key matches a field
// exactly or not at all, where encoding/json would also fold case), each
// once; integer literals that fit their field; true or false; strings
// without escapes; no null; nothing after the body. It decodes into a
// zero Response only, since encoding/json merges into whatever r holds. On
// anything else the whole input goes to encoding/json instead, so what a
// Response accepts, holds and reports are that decoder's by construction.
// Callers holding a whole body may call it directly; json.Unmarshal
// reaches it too, after its own two scans.
func (r *Response) UnmarshalJSON(data []byte) error {
	if *r == (Response{}) {
		if resp, ok := decodeResponse(data); ok {
			*r = resp
			return nil
		}
	}
	return json.Unmarshal(data, (*plainResponse)(r))
}

// decodeResponse decodes the canonical form UnmarshalJSON describes; ok is
// false on anything else, and r is then garbage.
func decodeResponse(data []byte) (Response, bool) {
	r, end, ok := decodeResponseAt(data, 0)
	return r, ok && skipSpace(data, end) == len(data)
}

// decodeResponseAt is decodeResponse for the object at data[i], a batch's
// position: it returns the index after the closing brace, and whatever
// follows is the caller's.
func decodeResponseAt(data []byte, i int) (r Response, end int, ok bool) {
	end, ok = walkFields(data, i, responseFields, func(key string, at int) (int, bool) {
		switch key {
		case "kind":
			return constField(data, at, kinds, &r.Kind)
		case "graph":
			return graphField(data, at, &r.Graph)
		case "sssp":
			r.SSSP = new(SSSPResult)
			return r.SSSP.decode(data, at)
		case "mssp":
			r.MSSP = new(MSSPResult)
			return r.MSSP.decode(data, at)
		case "apsp":
			r.APSP = new(APSPResult)
			return r.APSP.decode(data, at)
		case "distance":
			r.Distance = new(DistanceResult)
			return r.Distance.decode(data, at)
		case "diameter":
			r.Diameter = new(DiameterResult)
			return walkFields(data, at, diameterFields, func(_ string, at int) (int, bool) {
				return int64Field(data, at, &r.Diameter.Estimate)
			})
		case "knearest":
			r.KNearest = new(KNearestResult)
			return r.KNearest.decode(data, at)
		case "source_detection":
			r.SourceDetection = new(SourceDetectionResult)
			return r.SourceDetection.decode(data, at)
		case "stats":
			r.Stats = new(Stats)
			return r.Stats.decode(data, at)
		case "cached":
			return boolField(data, at, &r.Cached)
		default: // "error"
			r.Error = new(Error)
			return r.Error.decode(data, at)
		}
	})
	return r, end, ok
}

// plainBatch is BatchResponse without its decoder, as plainResponse is
// Response without its.
type plainBatch BatchResponse

// UnmarshalJSON decodes a batch in one walk: {"responses":[...]} by hand,
// each position by Response's walk (decodeResponseAt), into a slice of
// exactly the batch's length. It takes the canonical form Response's
// UnmarshalJSON takes, into a batch that holds no slice yet; on anything
// else the whole input goes to encoding/json, whose walk then hands each
// position to Response.UnmarshalJSON.
func (b *BatchResponse) UnmarshalJSON(data []byte) error {
	if b.Responses == nil {
		if br, ok := decodeBatch(data); ok {
			*b = br
			return nil
		}
	}
	return json.Unmarshal(data, (*plainBatch)(b))
}

// decodeBatch decodes the canonical form of a BatchResponse; ok is false on
// anything else, and b is then garbage.
func decodeBatch(data []byte) (b BatchResponse, ok bool) {
	end, ok := walkFields(data, 0, batchFields, func(_ string, at int) (end int, ok bool) {
		b.Responses, end, ok = decodeResponses(data, at)
		return end, ok
	})
	return b, ok && skipSpace(data, end) == len(data)
}

// decodeResponses decodes the array of responses at data[i] and returns it
// with the index after its closing bracket. The positions are gathered on
// the stack - in a heap slice past 16 - and copied into one slice of
// exactly their number; [] is a non-nil empty one, as encoding/json makes.
func decodeResponses(data []byte, i int) ([]Response, int, bool) {
	if i >= len(data) || data[i] != '[' {
		return nil, i, false
	}
	var local [16]Response
	held := local[:0]
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != ']'; more; {
		r, next, ok := decodeResponseAt(data, i)
		if !ok {
			return nil, next, false
		}
		held = append(held, r)
		if i, more, ok = separator(data, next); !ok {
			return nil, i, false
		}
	}
	out := make([]Response, len(held))
	copy(out, held)
	return out, i + 1, true
}

// decodeRequest decodes the canonical form of a Request, the one
// json.Marshal (and Request.AppendJSON) writes, under the rules of
// Response's walk: Request's own keys once each, integer literals, no
// escapes, no null but a nil source list's, nothing after the body. Kind
// and variant are matched against their constants; the integer fields are
// parsed where they lie, a source list into a slice of its exact length.
// ok is false on anything else, and r is then garbage.
func decodeRequest(data []byte) (r Request, ok bool) {
	end, ok := walkFields(data, 0, requestFields, func(key string, at int) (int, bool) {
		switch key {
		case "kind":
			return constField(data, at, kinds, &r.Kind)
		case "graph":
			return graphField(data, at, &r.Graph)
		case "sssp":
			r.SSSP = new(SSSPParams)
			return walkFields(data, at, ssspParams, func(_ string, at int) (int, bool) {
				return intField(data, at, &r.SSSP.Source)
			})
		case "mssp":
			r.MSSP = new(MSSPParams)
			return walkFields(data, at, msspParams, func(_ string, at int) (int, bool) {
				return sourceList(data, at, &r.MSSP.Sources)
			})
		case "apsp":
			r.APSP = new(APSPParams)
			return walkFields(data, at, apspParams, func(_ string, at int) (int, bool) {
				return constField(data, at, variants, &r.APSP.Variant)
			})
		case "distance":
			r.Distance = new(DistanceParams)
			return walkFields(data, at, distanceParams, func(key string, at int) (int, bool) {
				if key == "from" {
					return intField(data, at, &r.Distance.From)
				}
				return intField(data, at, &r.Distance.To)
			})
		case "knearest":
			r.KNearest = new(KNearestParams)
			return walkFields(data, at, knearestParams, func(_ string, at int) (int, bool) {
				return intField(data, at, &r.KNearest.K)
			})
		default: // "source_detection"
			p := new(SourceDetectionParams)
			r.SourceDetection = p
			return walkFields(data, at, detectParams, func(key string, at int) (end int, ok bool) {
				switch key {
				case "sources":
					return sourceList(data, at, &p.Sources)
				case "d":
					return intField(data, at, &p.D)
				default:
					return intField(data, at, &p.K)
				}
			})
		}
	})
	return r, ok && skipSpace(data, end) == len(data)
}

// sourceList parses the source list at data[i] into dst: null, which
// json.Marshal writes for a nil list, or a list of integers.
func sourceList(data []byte, i int, dst *[]int) (end int, ok bool) {
	if end, ok = expect(data, i, "null"); ok {
		*dst = nil
		return end, true
	}
	*dst, end, ok = decodeList(data, i, parseInt)
	return end, ok
}

// The keys each object of the canonical form may carry, json.Marshal's
// names for the fields.
var (
	responseFields = []string{"kind", "graph", "sssp", "mssp", "apsp", "distance", "diameter",
		"knearest", "source_detection", "stats", "cached", "error"}
	ssspFields     = []string{"source", "dist", "iterations"}
	msspFields     = []string{"sources", "dist"}
	apspFields     = []string{"variant", "dist"}
	distanceFields = []string{"from", "to", "distance", "reachable"}
	diameterFields = []string{"estimate"}
	knearestFields = []string{"k", "neighbors"}
	detectFields   = []string{"d", "k", "detected"}
	statsFields    = []string{"total_rounds", "sim_rounds", "messages", "words"}
	errorFields    = []string{"code", "message"}
	batchFields    = []string{"responses"}

	requestFields  = []string{"kind", "graph", "sssp", "mssp", "apsp", "distance", "knearest", "source_detection"}
	ssspParams     = []string{"source"}
	msspParams     = []string{"sources"}
	apspParams     = []string{"variant"}
	distanceParams = []string{"from", "to"}
	knearestParams = []string{"k"}
	detectParams   = []string{"sources", "d", "k"}
)

// The string constants a walk matches a value against instead of copying
// it. The empty string matches too: it is what the zero value encodes as.
var (
	kinds      = Kinds()
	variants   = []APSPVariant{APSPAuto, APSPWeighted, APSPWeighted3, APSPUnweighted}
	errorCodes = []ErrorCode{CodeCanceled, CodeDeadline, CodeRoundLimit, CodeInvalidSource, CodeInvalidOption,
		CodeMalformed, CodeUnknownGraph, CodeUnavailable, CodeOverloaded, CodeInternal}
)

func (s *SSSPResult) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, ssspFields, func(key string, at int) (end int, ok bool) {
		switch key {
		case "source":
			return intField(data, at, &s.Source)
		case "dist":
			s.Dist, end, ok = decodeList(data, at, parseCell)
			return end, ok
		default:
			return intField(data, at, &s.Iterations)
		}
	})
}

func (m *MSSPResult) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, msspFields, func(key string, at int) (end int, ok bool) {
		if key == "sources" {
			m.Sources, end, ok = decodeList(data, at, parseInt)
		} else {
			m.Dist, end, ok = decodeMatrix(data, at)
		}
		return end, ok
	})
}

func (a *APSPResult) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, apspFields, func(key string, at int) (end int, ok bool) {
		if key == "variant" {
			return constField(data, at, variants, &a.Variant)
		}
		a.Dist, end, ok = decodeMatrix(data, at)
		return end, ok
	})
}

func (d *DistanceResult) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, distanceFields, func(key string, at int) (int, bool) {
		switch key {
		case "from":
			return intField(data, at, &d.From)
		case "to":
			return intField(data, at, &d.To)
		case "distance":
			return int64Field(data, at, &d.Distance)
		default:
			return boolField(data, at, &d.Reachable)
		}
	})
}

func (k *KNearestResult) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, knearestFields, func(key string, at int) (end int, ok bool) {
		if key == "k" {
			return intField(data, at, &k.K)
		}
		k.Neighbors, end, ok = decodeNeighborLists(data, at)
		return end, ok
	})
}

func (s *SourceDetectionResult) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, detectFields, func(key string, at int) (end int, ok bool) {
		switch key {
		case "d":
			return intField(data, at, &s.D)
		case "k":
			return intField(data, at, &s.K)
		default:
			s.Detected, end, ok = decodeNeighborLists(data, at)
			return end, ok
		}
	})
}

func (s *Stats) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, statsFields, func(key string, at int) (int, bool) {
		switch key {
		case "total_rounds":
			return intField(data, at, &s.TotalRounds)
		case "sim_rounds":
			return intField(data, at, &s.SimRounds)
		case "messages":
			return int64Field(data, at, &s.Messages)
		default:
			return int64Field(data, at, &s.Words)
		}
	})
}

func (e *Error) decode(data []byte, i int) (int, bool) {
	return walkFields(data, i, errorFields, func(key string, at int) (int, bool) {
		if key == "code" {
			return constField(data, at, errorCodes, &e.Code)
		}
		s, end, ok := parseString(data, at, isTextByte)
		if ok {
			e.Message = string(s)
		}
		return end, ok
	})
}

// walkFields is walkObject over an object whose keys are each one of
// fields, at most once: visit gets the key as fields spells it. An unknown
// or repeated key stops the walk, ok false. It holds at most 32 fields.
func walkFields(data []byte, i int, fields []string, visit func(key string, at int) (int, bool)) (end int, ok bool) {
	var seen uint32
	return walkObject(data, i, func(key []byte, at int) (int, bool) {
		for f, name := range fields {
			if string(key) == name {
				if seen&(1<<f) != 0 {
					return at, false
				}
				seen |= 1 << f
				return visit(name, at)
			}
		}
		return at, false
	})
}

// intField parses the integer literal at data[i] into an int field.
func intField(data []byte, i int, dst *int) (end int, ok bool) {
	*dst, end, ok = parseInt(data, i)
	return end, ok
}

// int64Field parses the integer literal at data[i] into an int64 field.
func int64Field(data []byte, i int, dst *int64) (end int, ok bool) {
	*dst, end, ok = parseInt64(data, i)
	return end, ok
}

// parseInt is parseInt64 for what an int holds.
func parseInt(data []byte, i int) (int, int, bool) {
	v, end, ok := parseInt64(data, i)
	return int(v), end, ok && int64(int(v)) == v
}

// parseInt64 is parseCell refusing -0, which no encoder writes.
func parseInt64(data []byte, i int) (int64, int, bool) {
	v, end, ok := parseCell(data, i)
	return v, end, ok && (v != 0 || data[i] != '-')
}

// boolField parses true or false at data[i].
func boolField(data []byte, i int, dst *bool) (int, bool) {
	if end, ok := expect(data, i, "true"); ok {
		*dst = true
		return end, true
	}
	*dst = false
	return expect(data, i, "false")
}

// constField parses a string at data[i] that is one of consts, or empty,
// into dst, which then holds the constant itself: the walk copies no
// string a constant already spells. The string may hold any plain byte
// (isTextByte), since only a constant's own bytes match: "weighted3" is a
// variant.
func constField[T ~string](data []byte, i int, consts []T, dst *T) (int, bool) {
	s, end, ok := parseString(data, i, isTextByte)
	if !ok || len(s) == 0 {
		*dst = ""
		return end, ok
	}
	for _, c := range consts {
		if string(s) == string(c) {
			*dst = c
			return end, true
		}
	}
	return end, false
}

// graphField parses a graph ID: a string of ValidateGraphID's bytes.
func graphField(data []byte, i int, dst *string) (int, bool) {
	s, end, ok := parseString(data, i, isGraphByte)
	if ok {
		*dst = string(s)
	}
	return end, ok
}

// parseString reads the string literal at data[i] whose bytes all satisfy
// plain - none of them a quote, a backslash or a control byte, so the
// literal means its bytes - and returns those bytes.
func parseString(data []byte, i int, plain func(byte) bool) ([]byte, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, i, false
	}
	first := i + 1
	for i = first; i < len(data) && plain(data[i]); i++ {
	}
	if i == len(data) || data[i] != '"' {
		return nil, i, false
	}
	return data[first:i], i + 1, true
}

// isKeyByte is a byte of a plain key: [a-z_].
func isKeyByte(c byte) bool { return c >= 'a' && c <= 'z' || c == '_' }

// isGraphByte is a byte ValidateGraphID allows: [A-Za-z0-9._-].
func isGraphByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-'
}

// isTextByte is a printable ASCII byte other than a quote or a backslash.
func isTextByte(c byte) bool { return c >= ' ' && c <= '~' && c != '"' && c != '\\' }

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
		for i < len(data) && isKeyByte(data[i]) {
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
