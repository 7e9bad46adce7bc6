// Package api defines the versioned wire schema of the ccsp query plane:
// the typed request/response model shared by the library (Engine.Query,
// Engine.Batch), the serving daemon (POST /v1/query, /v1/batch) and the
// HTTP client package. The paper's amortization story - one hopset
// preprocess serves many queries (Theorems 3, 28, 31) - needs a surface
// that can express "many queries" as a unit; this package is that
// surface's vocabulary.
//
// A Request is a tagged union: Kind names the algorithm and exactly the
// matching parameter struct is set (Diameter takes none). A Response
// carries the matching typed result, the run's deterministic cost Stats,
// a Cached flag (set by serving layers), and - in batch position - a
// typed Error instead of a result. Distances on the wire use -1 for
// unreachable pairs (the in-process ccsp package uses ccsp.Unreachable).
//
// The package deliberately has no dependency on the ccsp root package:
// it is pure schema - types, structural validation, JSON decoding, and
// the canonical cache-key encoding - so clients that only speak the wire
// protocol can import it without pulling in the simulator.
//
// Versioning: Version is the wire major version, and the canonical
// cache-key encoding is prefixed with it. Unknown JSON fields are
// ignored (additions are backwards compatible); a union whose payload
// does not match its kind is rejected with ErrMalformed. Breaking
// changes bump Version and mount new /v{N}/ endpoints.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Version is the wire schema major version, reflected in the /v1/ HTTP
// endpoints and the cache-key prefix.
const Version = 1

// Unreachable is the wire encoding of an unreachable distance.
const Unreachable = -1

// ErrMalformed marks a request that is structurally invalid - unparseable
// JSON, an unknown kind, or a union payload that does not match its kind.
// Serving layers map it to 400; semantic errors (out-of-range nodes, bad
// option values) are typed by the engine instead and map to 422.
var ErrMalformed = errors.New("api: malformed request")

// Kind names one of the query algorithms.
type Kind string

const (
	// KindSSSP is exact single-source shortest paths (Theorem 33).
	KindSSSP Kind = "sssp"
	// KindMSSP is (1+ε)-approximate multi-source distances (Theorem 3).
	KindMSSP Kind = "mssp"
	// KindAPSP is approximate all-pairs distances (Theorems 28/31, §6.1).
	KindAPSP Kind = "apsp"
	// KindDistance is a single (1+ε)-approximate pair, answered via MSSP.
	KindDistance Kind = "distance"
	// KindDiameter is the near-3/2 diameter approximation (§7.2).
	KindDiameter Kind = "diameter"
	// KindKNearest is exact k-nearest neighbors with routing witnesses
	// (Theorem 18).
	KindKNearest Kind = "knearest"
	// KindSourceDetection is (S, d, k)-source detection (Theorem 19).
	KindSourceDetection Kind = "source_detection"
)

// Kinds lists every request kind, in a fixed order.
func Kinds() []Kind {
	return []Kind{KindSSSP, KindMSSP, KindAPSP, KindDistance, KindDiameter, KindKNearest, KindSourceDetection}
}

// APSPVariant selects which all-pairs algorithm serves a KindAPSP request.
type APSPVariant string

const (
	// APSPAuto (the default) picks APSPUnweighted on unit-weight graphs
	// and APSPWeighted otherwise - the strongest guarantee for the input.
	APSPAuto APSPVariant = "auto"
	// APSPWeighted is the (2+ε, (1+ε)W) weighted algorithm (Theorem 28).
	APSPWeighted APSPVariant = "weighted"
	// APSPWeighted3 is the simpler (3+ε) weighted algorithm (§6.1).
	APSPWeighted3 APSPVariant = "weighted3"
	// APSPUnweighted is the (2+ε) unweighted algorithm (Theorem 31).
	APSPUnweighted APSPVariant = "unweighted"
)

// SSSPParams parameterizes a KindSSSP request.
type SSSPParams struct {
	// Source is the source node ID.
	Source int `json:"source"`
}

// MSSPParams parameterizes a KindMSSP request.
type MSSPParams struct {
	// Sources is the source set; order and duplicates are irrelevant (the
	// engine and the cache key both normalize to the ascending dedup).
	Sources []int `json:"sources"`
}

// APSPParams parameterizes a KindAPSP request.
type APSPParams struct {
	// Variant selects the algorithm; empty means APSPAuto.
	Variant APSPVariant `json:"variant,omitempty"`
}

// DistanceParams parameterizes a KindDistance request.
type DistanceParams struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// KNearestParams parameterizes a KindKNearest request.
type KNearestParams struct {
	// K is the number of nearest nodes each node learns (clamped to n).
	K int `json:"k"`
}

// SourceDetectionParams parameterizes a KindSourceDetection request.
type SourceDetectionParams struct {
	// Sources is the source set S.
	Sources []int `json:"sources"`
	// D is the hop bound d (clamped to n by the engine: paths never need
	// more than n-1 hops).
	D int `json:"d"`
	// K is the number of nearest sources each node learns.
	K int `json:"k"`
}

// Request is the tagged union of all query kinds: Kind names the
// algorithm and exactly the matching parameter field is non-nil
// (KindDiameter carries no parameters). The zero Request is invalid.
//
// Graph optionally names which of a daemon's graphs the query targets.
// Empty means the default (single-graph daemons serve exactly one
// engine under the empty ID, so pre-graph-field requests keep their
// meaning and their wire bytes). The cluster tier routes by this field.
type Request struct {
	Kind Kind `json:"kind"`

	// Graph is the target graph ID; empty selects the daemon's default
	// graph. IDs are limited to [A-Za-z0-9._-] (at most MaxGraphIDLen
	// bytes) so they embed safely in cache keys, file names and URLs.
	Graph string `json:"graph,omitempty"`

	SSSP            *SSSPParams            `json:"sssp,omitempty"`
	MSSP            *MSSPParams            `json:"mssp,omitempty"`
	APSP            *APSPParams            `json:"apsp,omitempty"`
	Distance        *DistanceParams        `json:"distance,omitempty"`
	KNearest        *KNearestParams        `json:"knearest,omitempty"`
	SourceDetection *SourceDetectionParams `json:"source_detection,omitempty"`
}

// SSSP builds an exact single-source request (Theorem 33).
func SSSP(source int) Request {
	return Request{Kind: KindSSSP, SSSP: &SSSPParams{Source: source}}
}

// MSSP builds a (1+ε)-approximate multi-source request (Theorem 3).
func MSSP(sources ...int) Request {
	return Request{Kind: KindMSSP, MSSP: &MSSPParams{Sources: sources}}
}

// APSP builds an all-pairs request; APSPAuto (or "") lets the answering
// engine pick Theorem 31 on unit weights and Theorem 28 otherwise.
func APSP(variant APSPVariant) Request {
	return Request{Kind: KindAPSP, APSP: &APSPParams{Variant: variant}}
}

// Distance builds a single (1+ε)-approximate pair request.
func Distance(from, to int) Request {
	return Request{Kind: KindDistance, Distance: &DistanceParams{From: from, To: to}}
}

// Diameter builds a near-3/2 diameter request (§7.2).
func Diameter() Request { return Request{Kind: KindDiameter} }

// KNearest builds an exact k-nearest request (Theorem 18).
func KNearest(k int) Request {
	return Request{Kind: KindKNearest, KNearest: &KNearestParams{K: k}}
}

// SourceDetection builds an (S, d, k)-source-detection request
// (Theorem 19).
func SourceDetection(sources []int, d, k int) Request {
	return Request{Kind: KindSourceDetection,
		SourceDetection: &SourceDetectionParams{Sources: sources, D: d, K: k}}
}

// On returns the request addressed to the named graph of a multi-graph
// daemon or cluster: api.SSSP(0).On("roads").
func (r Request) On(graph string) Request {
	r.Graph = graph
	return r
}

// payloads returns the union's payload presence by kind; nil marks kinds
// that carry no payload.
func (r Request) payloads() map[Kind]bool {
	return map[Kind]bool{
		KindSSSP:            r.SSSP != nil,
		KindMSSP:            r.MSSP != nil,
		KindAPSP:            r.APSP != nil,
		KindDistance:        r.Distance != nil,
		KindKNearest:        r.KNearest != nil,
		KindSourceDetection: r.SourceDetection != nil,
	}
}

// Validate checks the structural invariants of the union: the kind is
// known, the matching payload is present (except KindDiameter and
// KindAPSP, whose payloads are optional), and no foreign payload is set.
// Semantic validity (node ranges, positive k) is the engine's job - it
// owns the graph - and surfaces as ccsp.ErrInvalidSource /
// ccsp.ErrInvalidOption. Every violation here wraps ErrMalformed.
func (r Request) Validate() error {
	present := r.payloads()
	known := false
	for _, k := range Kinds() {
		if k == r.Kind {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("%w: unknown kind %q", ErrMalformed, r.Kind)
	}
	if err := ValidateGraphID(r.Graph); err != nil {
		return err
	}
	for kind, set := range present {
		if set && kind != r.Kind {
			return fmt.Errorf("%w: kind %q with foreign %q parameters", ErrMalformed, r.Kind, kind)
		}
	}
	switch r.Kind {
	case KindDiameter:
		// No payload.
	case KindAPSP:
		if r.APSP != nil {
			switch r.APSP.Variant {
			case "", APSPAuto, APSPWeighted, APSPWeighted3, APSPUnweighted:
			default:
				return fmt.Errorf("%w: unknown apsp variant %q", ErrMalformed, r.APSP.Variant)
			}
		}
	default:
		if !present[r.Kind] {
			return fmt.Errorf("%w: kind %q without %q parameters", ErrMalformed, r.Kind, r.Kind)
		}
	}
	return nil
}

// Variant returns the request's APSP variant with the empty default
// resolved to APSPAuto. Only meaningful for KindAPSP.
func (r Request) Variant() APSPVariant {
	if r.APSP == nil || r.APSP.Variant == "" {
		return APSPAuto
	}
	return r.APSP.Variant
}

// MaxGraphIDLen bounds the byte length of a graph ID.
const MaxGraphIDLen = 128

// ValidateGraphID checks that id is a legal graph ID: empty (the
// default graph) or 1..MaxGraphIDLen bytes of [A-Za-z0-9._-]. The
// charset deliberately excludes ':' (the cache-key separator), '/' and
// whitespace, so IDs embed verbatim in cache keys, snapshot file names
// and URLs without escaping. Violations wrap ErrMalformed.
func ValidateGraphID(id string) error {
	if len(id) > MaxGraphIDLen {
		return fmt.Errorf("%w: graph ID longer than %d bytes", ErrMalformed, MaxGraphIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: graph ID %q contains %q (allowed: [A-Za-z0-9._-])", ErrMalformed, id, c)
		}
	}
	return nil
}

// CacheKey returns the canonical encoding of the request, the string
// serving layers key response caches by. Two requests with the same
// semantics encode identically: MSSP and source-detection source sets
// are sorted and deduplicated, the default APSP variant encodes as
// "auto". The encoding is versioned ("v1:...") so a schema bump never
// aliases old cache entries.
//
// A non-empty Graph inserts a "g=<id>:" segment right after the version
// prefix; requests without a graph ID keep the exact pre-graph-field
// encoding, so existing cache entries (and the golden responses pinned
// on them) survive the schema addition. The graph charset excludes ':',
// so a graph-scoped key can never alias a different graph's key or a
// default-graph key.
//
// Note that APSPAuto encodes as "auto": it resolves against a concrete
// graph, so serving layers that want auto and explicit requests to share
// cache entries resolve the variant before keying.
//
// CacheKey is CacheKeyAt(0): correct only for graphs that never mutate.
// Serving layers that accept updates key by CacheKeyAt(eng.Epoch()).
func (r Request) CacheKey() string { return r.CacheKeyAt(0) }

// CacheKeyAt is CacheKey scoped to a graph epoch: the serving layer
// passes the epoch of the engine that will answer (ccsp.Engine.Epoch),
// so a cached answer can never outlive the graph version it was
// computed on - bumping the epoch changes every key, orphaning (rather
// than aliasing) stale entries. Epoch 0 - a never-mutated graph -
// encodes no segment at all, keeping the historical key bytes; a
// positive epoch inserts "e=<epoch>:" after the version and graph
// prefix.
func (r Request) CacheKeyAt(epoch uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d:", Version)
	if r.Graph != "" {
		fmt.Fprintf(&b, "g=%s:", r.Graph)
	}
	if epoch != 0 {
		fmt.Fprintf(&b, "e=%d:", epoch)
	}
	b.WriteString(string(r.Kind))
	switch r.Kind {
	case KindSSSP:
		if r.SSSP != nil {
			fmt.Fprintf(&b, ":src=%d", r.SSSP.Source)
		}
	case KindMSSP:
		if r.MSSP != nil {
			b.WriteString(":sources=")
			b.WriteString(canonicalInts(r.MSSP.Sources))
		}
	case KindAPSP:
		fmt.Fprintf(&b, ":variant=%s", r.Variant())
	case KindDistance:
		if r.Distance != nil {
			fmt.Fprintf(&b, ":from=%d:to=%d", r.Distance.From, r.Distance.To)
		}
	case KindKNearest:
		if r.KNearest != nil {
			fmt.Fprintf(&b, ":k=%d", r.KNearest.K)
		}
	case KindSourceDetection:
		if r.SourceDetection != nil {
			fmt.Fprintf(&b, ":sources=%s:d=%d:k=%d",
				canonicalInts(r.SourceDetection.Sources), r.SourceDetection.D, r.SourceDetection.K)
		}
	}
	return b.String()
}

// canonicalInts renders a sorted, deduplicated, comma-separated list.
func canonicalInts(vals []int) string {
	uniq := append([]int(nil), vals...)
	sort.Ints(uniq)
	parts := make([]string, 0, len(uniq))
	for i, v := range uniq {
		if i > 0 && v == uniq[i-1] {
			continue
		}
		parts = append(parts, strconv.Itoa(v))
	}
	return strings.Join(parts, ",")
}

// DecodeRequest reads one JSON-encoded Request from r and validates it.
// Callers cap the reader (http.MaxBytesReader or io.LimitReader) before
// handing it over; syntax and validation failures both wrap ErrMalformed.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	if err := decodeStrict(r, &req); err != nil {
		return Request{}, err
	}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// DecodeBatchRequest reads a JSON-encoded BatchRequest from r. Per-request
// validation is left to the executor, which reports it per position so one
// malformed request does not reject its whole batch.
func DecodeBatchRequest(r io.Reader) (BatchRequest, error) {
	var br BatchRequest
	if err := decodeStrict(r, &br); err != nil {
		return BatchRequest{}, err
	}
	return br, nil
}

// KindUpdate names the mutation operation of the update plane
// (POST /v1/update). It is deliberately not a query kind - Kinds()
// excludes it and it never appears inside a Request - but workload
// mixes (loadgen, ccload) use it to name write traffic next to the
// query kinds.
const KindUpdate Kind = "update"

// EdgeUpdate is one edge mutation (ccsp.EdgeUpdate is this type). W >= 0
// sets the weight of the undirected edge {U, V}, inserting it if absent
// and collapsing any parallel edges to the single new weight; W < 0
// deletes the edge (a no-op if absent).
type EdgeUpdate struct {
	U int   `json:"u"`
	V int   `json:"v"`
	W int64 `json:"w"`
}

// UpdateRequest is the body of POST /v1/update: a batch of edge
// mutations applied atomically as one generation - queries observe
// either none or all of them, at the epoch the response reports.
type UpdateRequest struct {
	// Graph targets one of the daemon's graphs; empty is the default.
	Graph string `json:"graph,omitempty"`
	// Updates is applied in order within the batch.
	Updates []EdgeUpdate `json:"updates"`
	// Async makes the daemon answer as soon as the updates are staged,
	// with the epoch they will become visible at, instead of blocking
	// until the background rebuild publishes it.
	Async bool `json:"async,omitempty"`
}

// Validate checks the structural invariants of an UpdateRequest.
// Per-update semantics (node ranges, self-loops) are the engine's job
// and surface as typed 422s.
func (r UpdateRequest) Validate() error {
	if err := ValidateGraphID(r.Graph); err != nil {
		return err
	}
	if len(r.Updates) == 0 {
		return fmt.Errorf("%w: update request with no updates", ErrMalformed)
	}
	return nil
}

// DecodeUpdateRequest reads one JSON-encoded UpdateRequest from r and
// validates it. Callers cap the reader first.
func DecodeUpdateRequest(r io.Reader) (UpdateRequest, error) {
	var ur UpdateRequest
	if err := decodeStrict(r, &ur); err != nil {
		return UpdateRequest{}, err
	}
	if err := ur.Validate(); err != nil {
		return UpdateRequest{}, err
	}
	return ur, nil
}

// UpdateResponse is the body of a successful /v1/update answer.
type UpdateResponse struct {
	// Graph echoes the request's graph ID.
	Graph string `json:"graph,omitempty"`
	// Epoch is the graph version carrying the batch: already serving
	// unless Pending.
	Epoch uint64 `json:"epoch"`
	// Applied is the number of updates in the batch.
	Applied int `json:"applied"`
	// Pending marks an Async answer: the rebuild was still in flight
	// when the response was written, and queries reflect the batch only
	// once GET /v1/epoch reaches Epoch.
	Pending bool `json:"pending,omitempty"`
}

// EpochResponse is the body of GET /v1/epoch: the serving epoch of one
// graph, for polling async updates and for asserting freshness.
type EpochResponse struct {
	// Graph echoes the ?graph= parameter.
	Graph string `json:"graph,omitempty"`
	// Epoch is the graph version queries are answered at right now.
	Epoch uint64 `json:"epoch"`
	// Pending counts staged updates not yet visible at Epoch.
	Pending int `json:"pending,omitempty"`
}

// decodeStrict decodes exactly one JSON value followed by nothing but
// whitespace, mapping every failure to ErrMalformed. The end is checked
// with Token, not More: More reports false before a closing delimiter, so
// a stray "}" or "]" after the body would pass it.
func decodeStrict(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after the JSON body", ErrMalformed)
	}
	return nil
}

// ErrorCode is the machine-readable classification of a failed request,
// the wire form of the ccsp typed-error taxonomy.
type ErrorCode string

const (
	// CodeCanceled: the caller's context was canceled mid-query.
	CodeCanceled ErrorCode = "canceled"
	// CodeDeadline: a deadline (the server's per-request timeout, or the
	// caller's own) expired mid-query.
	CodeDeadline ErrorCode = "deadline_exceeded"
	// CodeRoundLimit: the run exceeded Options.MaxRounds.
	CodeRoundLimit ErrorCode = "round_limit"
	// CodeInvalidSource: a node ID is out of range or a source set is empty.
	CodeInvalidSource ErrorCode = "invalid_source"
	// CodeInvalidOption: an option or query parameter is out of its domain.
	CodeInvalidOption ErrorCode = "invalid_option"
	// CodeMalformed: the request is structurally invalid (ErrMalformed).
	CodeMalformed ErrorCode = "malformed"
	// CodeUnknownGraph: the request named a graph this daemon does not
	// serve (HTTP 404).
	CodeUnknownGraph ErrorCode = "unknown_graph"
	// CodeUnavailable: the daemon (or, in a cluster, every replica that
	// could own the graph) cannot serve the request right now - snapshots
	// still loading, or the owning replica is down (HTTP 503). Transient:
	// retrying later, or against another replica, may succeed.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeOverloaded: the daemon shed this request under admission
	// control - its bounded in-flight limit and wait queue were full
	// (HTTP 503 with a Retry-After hint). Transient: back off and retry.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeInternal: anything the taxonomy does not classify.
	CodeInternal ErrorCode = "internal"
)

// Error is a failed request's typed outcome.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Stats is the deterministic core of a run's communication cost: total
// rounds (simulated + charged primitives), messages and machine words.
// The word count is the currency the paper's bounds are stated in.
type Stats struct {
	TotalRounds int   `json:"total_rounds"`
	SimRounds   int   `json:"sim_rounds"`
	Messages    int64 `json:"messages"`
	Words       int64 `json:"words"`
}

// SSSPResult is the wire form of an exact single-source answer.
type SSSPResult struct {
	Source     int     `json:"source"`
	Dist       []int64 `json:"dist"`
	Iterations int     `json:"iterations"`
}

// MSSPResult is the wire form of a multi-source answer. Sources is the
// normalized (ascending, deduplicated) source list; Dist[v][i] is the
// distance from node v to Sources[i].
type MSSPResult struct {
	Sources []int  `json:"sources"`
	Dist    Matrix `json:"dist"`
}

// APSPResult is the wire form of an all-pairs answer. Variant is the
// concrete algorithm that ran (never "auto").
type APSPResult struct {
	Variant APSPVariant `json:"variant"`
	Dist    Matrix      `json:"dist"`
}

// DistanceResult is the wire form of a single-pair answer.
type DistanceResult struct {
	From      int   `json:"from"`
	To        int   `json:"to"`
	Distance  int64 `json:"distance"`
	Reachable bool  `json:"reachable"`
}

// DiameterResult is the wire form of a diameter answer.
type DiameterResult struct {
	Estimate int64 `json:"estimate"`
}

// Neighbor is one entry of a k-nearest or source-detection list
// (ccsp.Neighbor is this type): an exact distance plus the first hop of
// a shortest path (the routing witness of §3.1).
type Neighbor struct {
	// Node is the neighbor's ID.
	Node int `json:"node"`
	// Dist is the exact distance.
	Dist int64 `json:"dist"`
	// Hops is the minimal hop count among shortest paths.
	Hops int `json:"hops"`
	// FirstHop is the first edge of such a path (-1 for the self entry,
	// and throughout source detection, which tracks no witnesses).
	FirstHop int `json:"first_hop"`
}

// KNearestResult is the wire form of a k-nearest answer.
type KNearestResult struct {
	K         int           `json:"k"`
	Neighbors NeighborLists `json:"neighbors"`
}

// SourceDetectionResult is the wire form of an (S, d, k)-source-detection
// answer. Detected[v] lists node v's up-to-k nearest sources within d
// hops (FirstHop is -1: this query tracks no routing witnesses).
type SourceDetectionResult struct {
	D        int           `json:"d"`
	K        int           `json:"k"`
	Detected NeighborLists `json:"detected"`
}

// Response is the typed outcome of one Request: Kind echoes the request,
// exactly one result field is set on success (matching Kind), Error is
// set instead on failure. Stats is the deterministic cost of the run
// that produced the result (cached responses repeat the original run's
// stats); Cached marks responses served from a cache.
type Response struct {
	Kind Kind `json:"kind"`

	// Graph echoes the request's graph ID (empty for the default graph,
	// which also keeps pre-graph-field response bytes identical).
	Graph string `json:"graph,omitempty"`

	SSSP            *SSSPResult            `json:"sssp,omitempty"`
	MSSP            *MSSPResult            `json:"mssp,omitempty"`
	APSP            *APSPResult            `json:"apsp,omitempty"`
	Distance        *DistanceResult        `json:"distance,omitempty"`
	Diameter        *DiameterResult        `json:"diameter,omitempty"`
	KNearest        *KNearestResult        `json:"knearest,omitempty"`
	SourceDetection *SourceDetectionResult `json:"source_detection,omitempty"`

	Stats  *Stats `json:"stats,omitempty"`
	Cached bool   `json:"cached"`
	Error  *Error `json:"error,omitempty"`
}

// Err returns the response's error as a Go error (nil on success).
func (r *Response) Err() error {
	if r.Error == nil {
		return nil
	}
	return r.Error
}

// BatchResponse is the body of a /v1/batch answer: Responses[i] answers
// Requests[i], with per-request errors in place (a failed or canceled
// request never fails the batch).
type BatchResponse struct {
	Responses []Response `json:"responses"`
}

// Health is the body of /healthz: process liveness plus the default
// graph's shape. Graphs lists the named graphs a multi-graph daemon
// serves (omitted entirely in single-graph mode, keeping the historical
// body byte-identical).
type Health struct {
	Status string   `json:"status"`
	Nodes  int      `json:"nodes"`
	Edges  int      `json:"edges"`
	Graphs []string `json:"graphs,omitempty"`
}

// Ready is the body of /readyz, the readiness (as opposed to liveness)
// probe: a daemon is ready only once every snapshot is loaded or
// preprocessed. Graphs advertises the graph IDs this replica serves -
// including "" when a default engine exists - which is what the cluster
// prober uses to route queries only to replicas that actually hold the
// target graph.
type Ready struct {
	Ready  bool     `json:"ready"`
	Graphs []string `json:"graphs"`
}
