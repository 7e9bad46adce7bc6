package ccsp

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/cc"
)

// Typed errors. Every error returned from a public entry point wraps one of
// these sentinels (or is a plain validation error), so callers dispatch
// with errors.Is instead of matching message strings:
//
//	res, err := eng.MSSP(ctx, sources)
//	switch {
//	case errors.Is(err, ccsp.ErrCanceled):      // ctx canceled or deadline hit
//	case errors.Is(err, ccsp.ErrRoundLimit):    // Options.MaxRounds exceeded
//	case errors.Is(err, ccsp.ErrInvalidSource): // source ID out of range / empty set
//	case errors.Is(err, ccsp.ErrInvalidOption): // bad Options or query parameter
//	}
//
// ErrCanceled additionally wraps the context's own sentinel, so
// errors.Is(err, context.Canceled) and errors.Is(err, context.DeadlineExceeded)
// distinguish client cancellation from an expired deadline (the serving
// layer maps them to 499 and 504 respectively).
var (
	// ErrCanceled is wrapped by every error caused by a canceled or
	// deadline-expired context, at any stage: preprocessing, lazy artifact
	// builds, and query runs.
	ErrCanceled = errors.New("ccsp: canceled")
	// ErrRoundLimit is wrapped when a simulator run exceeds
	// Options.MaxRounds.
	ErrRoundLimit = errors.New("ccsp: round budget exceeded")
	// ErrInvalidSource is wrapped when a source (or target) node ID is out
	// of range, or a query's source set is empty.
	ErrInvalidSource = errors.New("ccsp: invalid source")
	// ErrInvalidOption is wrapped when Options fail validation or a query
	// parameter (k, d) is out of its domain.
	ErrInvalidOption = errors.New("ccsp: invalid option")
	// ErrUnknownGraph is wrapped when a request names a graph the serving
	// daemon does not hold (the cluster tier routes by graph ID; a replica
	// receiving a query for a graph outside its shard answers with this).
	// Maps to HTTP 404 / api.CodeUnknownGraph.
	ErrUnknownGraph = errors.New("ccsp: unknown graph")
	// ErrUnavailable is wrapped when a query cannot be served right now
	// but might be later or elsewhere: the daemon's snapshots are still
	// loading, or - cluster-side - every replica that could own the graph
	// is down. Maps to HTTP 503 / api.CodeUnavailable.
	ErrUnavailable = errors.New("ccsp: unavailable")
	// ErrOverloaded is wrapped when the serving daemon sheds a query
	// under admission control: its bounded in-flight limit and wait
	// queue are both full, so the request was rejected instead of piling
	// onto an already-saturated engine. Transient by definition - the
	// HTTP layer answers 503 with a Retry-After hint, and the client's
	// WithRetry honors it. Maps to api.CodeOverloaded.
	ErrOverloaded = errors.New("ccsp: overloaded")
)

// statusClientClosedRequest is nginx's non-standard 499, the
// conventional status for "the client went away before we could answer".
const statusClientClosedRequest = 499

// errorTable is the one statement of which sentinel is which wire code
// and which HTTP status; APIError, HTTPStatus and SentinelError are its
// only readers. Rows are tried in order and the first errors.Is match
// wins. The context sentinels come first because ErrCanceled wraps
// them: whether the deadline fired (504) or the caller went away (499)
// is the distinction that matters to proxies, logs and retry policies.
// An error no row claims is api.CodeInternal / 400.
var errorTable = []struct {
	match  error
	code   api.ErrorCode
	status int
}{
	{context.DeadlineExceeded, api.CodeDeadline, http.StatusGatewayTimeout},
	{context.Canceled, api.CodeCanceled, statusClientClosedRequest},
	{ErrCanceled, api.CodeCanceled, statusClientClosedRequest},
	{ErrRoundLimit, api.CodeRoundLimit, http.StatusServiceUnavailable},
	{ErrInvalidSource, api.CodeInvalidSource, http.StatusUnprocessableEntity},
	{ErrInvalidOption, api.CodeInvalidOption, http.StatusUnprocessableEntity},
	{ErrUnknownGraph, api.CodeUnknownGraph, http.StatusNotFound},
	{ErrOverloaded, api.CodeOverloaded, http.StatusServiceUnavailable},
	{ErrUnavailable, api.CodeUnavailable, http.StatusServiceUnavailable},
	{api.ErrMalformed, api.CodeMalformed, http.StatusBadRequest},
}

// classify returns err's row of errorTable.
func classify(err error) (api.ErrorCode, int) {
	for _, r := range errorTable {
		if errors.Is(err, r.match) {
			return r.code, r.status
		}
	}
	return api.CodeInternal, http.StatusBadRequest
}

// APIError converts an error from the typed taxonomy into its wire form
// (nil stays nil).
func APIError(err error) *api.Error {
	if err == nil {
		return nil
	}
	code, _ := classify(err)
	return &api.Error{Code: code, Message: err.Error()}
}

// HTTPStatus is the status the serving layer answers err with.
func HTTPStatus(err error) int {
	_, status := classify(err)
	return status
}

// SentinelError is APIError's inverse: it converts a typed api.Error
// into a Go error wrapping the matching sentinel, so errors.Is dispatch
// works identically whether a failure was returned by an Engine method,
// arrived as an HTTP status (surfaced by client.Query) or sits in place
// inside a batch position (Response.Error). The two context codes come
// back the way wrapRun and ctxErr produce them, under ErrCanceled.
// Codes no row carries (api.CodeInternal, codes from a newer daemon)
// pass through as the *api.Error itself.
func SentinelError(e *api.Error) error {
	for _, r := range errorTable {
		if r.code != e.Code {
			continue
		}
		if r.match == context.DeadlineExceeded || r.match == context.Canceled {
			return fmt.Errorf("%w: %w: %s", ErrCanceled, r.match, e.Message)
		}
		return fmt.Errorf("%w: %s", r.match, e.Message)
	}
	return e
}

// wrapRun translates a backend error into the public error taxonomy,
// prefixed with the failing operation. The simulator reports cancellation
// as cc.ErrCanceled (which wraps the context's sentinel), the kernels
// return the raw context sentinels; either way the originals stay in the
// chain and remain matchable.
func wrapRun(op string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, cc.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("ccsp: %s: %w: %w", op, ErrCanceled, err)
	case errors.Is(err, cc.ErrRoundLimit):
		return fmt.Errorf("ccsp: %s: %w: %w", op, ErrRoundLimit, err)
	default:
		return fmt.Errorf("ccsp: %s: %w", op, err)
	}
}

// ctxErr reports a context that is already dead as an ErrCanceled wrap (nil
// while the context is live). Entry points call it before starting work so
// a canceled caller never launches a simulator run.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}
