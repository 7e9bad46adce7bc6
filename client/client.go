// Package client is the Go client of the ccspd query plane: it speaks
// POST /v1/query and /v1/batch (the api package's wire schema) and maps
// HTTP failures back onto the ccsp typed-error taxonomy. Requests are
// built with the api constructors - the same values Engine.Query and
// Engine.Batch answer in process - so code written against a local
// ccsp.Engine ports to a remote daemon by swapping the receiver of
// Query/Batch, errors.Is dispatch included:
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.Query(ctx, api.MSSP(0, 5, 9))
//	switch {
//	case errors.Is(err, ccsp.ErrInvalidSource): // 422 invalid_source
//	case errors.Is(err, ccsp.ErrCanceled):      // canceled or timed out
//	}
//
// On a multi-graph daemon a request names its graph:
// api.SSSP(0).On("roads"). Query returns the full *api.Response (typed
// result + run stats + cache flag); Batch returns one response per
// request with per-request errors in place, exactly like Engine.Batch.
// Cluster (NewCluster) is the same pair over a sharded replica set: each
// request routes by the graph it names, so the port from one daemon to a
// cluster is again a swap of the receiver.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/pool"
)

// Client talks to one ccspd daemon. It is safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	retries   int
	retryBase time.Duration
	maxBody   int64 // maxResponseBytes; tests lower it

	postQuery, postBatch, postUpdate endpoint
}

// endpoint is one POST route of the daemon, its request made once (New):
// every call sends a shallow copy of req (http.Request.WithContext) that
// shares its URL and its Header, which nothing on the way writes - a
// RoundTripper must not modify the request, and a cookie jar, which adds to
// the header, gets a copy of it (postOnce).
type endpoint struct {
	path string
	req  *http.Request
	err  error // the URL did not parse; req is nil
}

func newEndpoint(base, path string) endpoint {
	req, err := http.NewRequest(http.MethodPost, base+path, nil)
	if err != nil {
		return endpoint{path: path, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return endpoint{path: path, req: req}
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// timeouts, transports, instrumentation), replacing the dedicated
// default transport.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry enables bounded retries of transiently failed requests:
// transport errors (connection refused or reset - ErrTransport) and
// 502/503 statuses, which a restarting or not-yet-ready daemon emits.
// A failed attempt retries up to n more times, sleeping base, 2·base,
// 4·base, ... between attempts (capped at maxBackoff) with up to 50%
// random jitter added so competing clients decorrelate. A 503 carrying
// a Retry-After hint (an overloaded daemon shedding load) raises the
// sleep to at least the hinted duration. Typed query failures (invalid
// source, round limit, unknown graph, ...) never retry: they are
// deterministic answers, not transients. Off by default.
func WithRetry(n int, base time.Duration) Option {
	return func(c *Client) {
		if n > 0 {
			c.retries = n
		}
		if base > 0 {
			c.retryBase = base
		}
	}
}

// defaultRetryBase is the first backoff sleep when WithRetry leaves the
// base unset.
const defaultRetryBase = 100 * time.Millisecond

// defaultHTTPClient builds the transport a Client uses unless
// WithHTTPClient overrides it. Unlike http.DefaultClient it bounds
// every connection-establishment phase, so a black-holed daemon
// surfaces as a typed transport failure in seconds instead of hanging
// a goroutine forever. There is deliberately no overall request
// deadline: large queries legitimately run for minutes under a
// generous server timeout - bound them with a context instead.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   10 * time.Second,
			ExpectContinueTimeout: time.Second,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   16,
		},
	}
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080"; a trailing slash is tolerated).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        defaultHTTPClient(),
		retryBase: defaultRetryBase,
		maxBody:   maxResponseBytes,
	}
	for _, o := range opts {
		o(c)
	}
	c.postQuery = newEndpoint(c.base, "/v1/query")
	c.postBatch = newEndpoint(c.base, "/v1/batch")
	c.postUpdate = newEndpoint(c.base, "/v1/update")
	return c
}

// Query answers one typed request via POST /v1/query.
func (c *Client) Query(ctx context.Context, req api.Request) (*api.Response, error) {
	var resp api.Response
	if err := c.send(ctx, &c.postQuery, req.AppendJSON(make([]byte, 0, requestPresize)), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// requestPresize is the first capacity of a Query payload: a point
// request's JSON, even one naming a graph and a few sources, fits it in
// one allocation.
const requestPresize = 128

// Batch answers many requests via POST /v1/batch: one response per
// request, per-request typed errors in place (inspect Response.Error /
// Response.Err), mirroring Engine.Batch. The error return covers
// transport and whole-batch failures only.
func (c *Client) Batch(ctx context.Context, reqs []api.Request) ([]api.Response, error) {
	var br api.BatchResponse
	if err := c.post(ctx, &c.postBatch, api.BatchRequest{Requests: reqs}, &br); err != nil {
		return nil, err
	}
	if len(br.Responses) != len(reqs) {
		return nil, fmt.Errorf("client: batch answered %d of %d requests", len(br.Responses), len(reqs))
	}
	return br.Responses, nil
}

// Update applies a batch of edge mutations to a dynamic graph via
// POST /v1/update, blocking until the background rebuild publishes the
// carrying epoch: on return, queries already reflect the batch.
// graph "" targets the daemon's default graph. Retries (WithRetry) are
// safe: updates are absolute (set-weight / delete), so replaying a
// batch is idempotent.
func (c *Client) Update(ctx context.Context, graph string, ups []api.EdgeUpdate) (*api.UpdateResponse, error) {
	return c.update(ctx, api.UpdateRequest{Graph: graph, Updates: ups})
}

// UpdateAsync stages the batch and returns as soon as the daemon
// assigned it an epoch, without waiting for the rebuild; poll Epoch
// until it reaches the returned value to observe the batch.
func (c *Client) UpdateAsync(ctx context.Context, graph string, ups []api.EdgeUpdate) (*api.UpdateResponse, error) {
	return c.update(ctx, api.UpdateRequest{Graph: graph, Updates: ups, Async: true})
}

func (c *Client) update(ctx context.Context, req api.UpdateRequest) (*api.UpdateResponse, error) {
	var resp api.UpdateResponse
	if err := c.post(ctx, &c.postUpdate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Epoch calls GET /v1/epoch: the serving epoch of one graph ("" = the
// default graph), with the daemon's count of staged-but-unpublished
// updates.
func (c *Client) Epoch(ctx context.Context, graph string) (*api.EpochResponse, error) {
	if err := api.ValidateGraphID(graph); err != nil {
		return nil, fmt.Errorf("client: /v1/epoch: %w", err)
	}
	target := c.base + "/v1/epoch"
	if graph != "" {
		target += "?" + url.Values{"graph": {graph}}.Encode()
	}
	var er api.EpochResponse
	if err := c.get(ctx, "/v1/epoch", target, &er); err != nil {
		return nil, err
	}
	return &er, nil
}

// Health calls GET /healthz: daemon liveness plus the served graph's
// shape.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.get(ctx, "healthz", c.base+"/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// get runs one GET round trip and decodes a 200 into out; name labels
// the endpoint in errors. Unlike post it never retries: both callers
// are probes whose failure is itself the answer.
func (c *Client) get(ctx context.Context, name, url string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	_, _, err = c.do(ctx, req, name, out)
	return err
}

// post sends in, encoded by json.Marshal, to ep and decodes the response
// into out (send).
func (c *Client) post(ctx context.Context, ep *endpoint, in, out interface{}) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode %s: %w", ep.path, err)
	}
	return c.send(ctx, ep, payload, out)
}

// send sends the JSON payload to ep and decodes the response, translating
// non-200 statuses through the typed-error taxonomy and retrying transient
// failures when WithRetry enabled them. Nothing reuses payload: a transport
// may still read or close an attempt's body after the call returns.
func (c *Client) send(ctx context.Context, ep *endpoint, payload []byte, out interface{}) error {
	if ep.err != nil {
		return fmt.Errorf("client: %w", ep.err)
	}
	for attempt := 0; ; attempt++ {
		retryable, retryAfter, err := c.postOnce(ctx, ep, payload, out)
		if err == nil {
			return nil
		}
		if !retryable || attempt >= c.retries || ctx.Err() != nil {
			return err
		}
		if serr := sleepBackoff(ctx, c.retryBase, attempt, retryAfter); serr != nil {
			return err
		}
	}
}

// postOnce runs one POST round trip of payload through do. The body is an
// io.NopCloser over a bytes.Reader, with the GetBody http.NewRequest would
// set: net/http knows it is in memory, and writes the headers and the body
// in one write.
func (c *Client) postOnce(ctx context.Context, ep *endpoint, payload []byte, out interface{}) (bool, time.Duration, error) {
	req := ep.req.WithContext(ctx)
	req.Body = io.NopCloser(bytes.NewReader(payload))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(payload)), nil }
	req.ContentLength = int64(len(payload))
	if c.hc.Jar != nil {
		req.Header = req.Header.Clone()
	}
	return c.do(ctx, req, ep.path, out)
}

// do runs one round trip and decodes a 200 into out; name labels the
// endpoint in errors. The bool classifies a failure as transient - a
// transport error, or a 502/503 status (a daemon still loading snapshots,
// shedding under admission control, or a proxy whose upstream died) - and
// therefore eligible for retry; typed query failures are final. On a
// retryable status the returned duration carries the server's Retry-After
// hint (0 when absent).
//
// The body is read once, into one buffer (readBody), and scanned once: an
// api.Response decodes itself from the whole body (its UnmarshalJSON), so
// encoding/json's validating pre-scan and its search for the value's end
// do not run over a multi-megabyte answer; the small bodies of the other
// endpoints stay on json.Unmarshal. Nothing decoded points into the buffer,
// so it goes back to its pool on return: smallBodies up to maxPooledBody,
// largeBodies above.
func (c *Client) do(ctx context.Context, req *http.Request, name string, out interface{}) (bool, time.Duration, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		terr := transportError(ctx, err)
		return errors.Is(terr, ErrTransport), 0, terr
	}
	defer resp.Body.Close()
	small := smallBodies.Get().(*[]byte)
	defer smallBodies.Put(small)
	buf := (*small)[:0]
	if resp.ContentLength > maxPooledBody {
		buf = largeBody(resp.ContentLength)
	}
	body, err := readBody(resp.Body, resp.ContentLength, c.maxBody, buf)
	switch {
	case cap(body) <= maxPooledBody:
		*small = body
	case cap(body) <= maxPresize+1: // not grown past what largeBody hands out
		defer largeBodies.Put(body)
	}
	if errors.Is(err, errBodyTooLarge) {
		return false, 0, fmt.Errorf("client: %s: %w", name, err)
	}
	if err != nil {
		terr := transportError(ctx, err)
		return errors.Is(terr, ErrTransport), 0, terr
	}
	if resp.StatusCode != http.StatusOK {
		retryable := resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable
		return retryable, parseRetryAfter(resp.Header.Get("Retry-After")), statusError(name, resp.StatusCode, body)
	}
	if u, ok := out.(json.Unmarshaler); ok {
		err = u.UnmarshalJSON(body)
	} else {
		err = json.Unmarshal(body, out)
	}
	if err != nil {
		return false, 0, fmt.Errorf("client: %s: bad JSON response: %w", name, err)
	}
	return false, 0, nil
}

// maxResponseBytes caps response bodies. All-pairs matrices grow with n²;
// 1 GiB admits n ≈ 10⁴ with room to spare while still bounding a
// misbehaving endpoint.
const maxResponseBytes = 1 << 30

const (
	// maxPresize caps the buffer allocated on the word of a Content-Length
	// header before any of the body has arrived: an n=1024 all-pairs answer
	// (3.9 MB) is read into exactly one allocation, and a header that lies
	// costs this much at most.
	maxPresize = 8 << 20
	// maxPooledBody is the largest buffer kept in smallBodies: point answers
	// reuse one buffer for ever. A larger body is read into a buffer of
	// largeBodies.
	maxPooledBody = 64 << 10
	// minBodyBuffer is the first buffer of a body of unknown length.
	minBodyBuffer = 4 << 10
)

var (
	// smallBodies recycles response buffers of at most maxPooledBody bytes.
	smallBodies = sync.Pool{New: func() interface{} { return new([]byte) }}
	// largeBodies recycles the buffers of bodies over maxPooledBody, one
	// size class per power of two (DESIGN.md §13, "who owns which buffer").
	// Its classes are sync.Pools, so a collection empties them and a
	// decoded matrix's buffer never pins megabytes.
	largeBodies pool.Scratch[byte]
)

// largeBody returns an empty buffer to read an announced body over
// maxPooledBody into: the top of the length's size class, capped at
// maxPresize+1 (what readBody would allocate). The k-nearest answers at
// k = 4…11 grow in order inside one class, and a pooled buffer of exactly
// the previous length would fit none of the next.
func largeBody(contentLength int64) []byte {
	n := int(min(contentLength, maxPresize)) + 1
	return largeBodies.Get(min(pool.Ceiling(n), maxPresize+1))[:0]
}

// errBodyTooLarge is not a transport failure: the daemon answered, and
// asking again (a retry, another replica) would fetch the same bytes.
var errBodyTooLarge = errors.New("response body exceeds the client's limit")

// readBody reads a whole response body of at most limit bytes into buf,
// growing it at most once when Content-Length is known and honest: the
// buffer is sized from the header (one spare byte, so the read that reports
// EOF has room), capped at maxPresize because the header is a claim, not
// data. Past that, and when the length is unknown (chunked, behind a
// proxy), the buffer doubles - to the announced length as soon as doubling
// reaches it. A body longer than limit fails with errBodyTooLarge rather
// than being cut there; a Content-Length above limit fails before a byte
// is read.
func readBody(r io.Reader, contentLength, limit int64, buf []byte) ([]byte, error) {
	if contentLength > limit {
		return buf, fmt.Errorf("%w: Content-Length %d, limit %d bytes", errBodyTooLarge, contentLength, limit)
	}
	if want := int(min(contentLength, maxPresize)) + 1; want > cap(buf) {
		buf = make([]byte, 0, max(want, minBodyBuffer))
	}
	for {
		if len(buf) == cap(buf) {
			size := max(2*cap(buf), minBodyBuffer)
			if announced := int(contentLength) + 1; cap(buf) < announced && announced < size {
				size = announced
			}
			buf = append(make([]byte, 0, size), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, fmt.Errorf("%w: limit %d bytes", errBodyTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parseRetryAfter reads an integer-seconds Retry-After hint (the only
// form ccspd emits; HTTP-date forms are ignored), capped at maxBackoff.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// maxBackoff caps one backoff sleep, so a long retry budget degrades
// into steady polling instead of ever-longer silences.
const maxBackoff = 5 * time.Second

// backoffDelay computes the pre-jitter sleep before the retry after
// `attempt`: exponential base·2^attempt capped at maxBackoff, raised to
// the server's Retry-After floor when one arrived - an overloaded
// daemon knows its own drain time better than our exponential guess.
func backoffDelay(base time.Duration, attempt int, floor time.Duration) time.Duration {
	if base <= 0 {
		base = defaultRetryBase
	}
	d := base << uint(attempt)
	if d <= 0 || d > maxBackoff { // <= 0 catches shift overflow
		d = maxBackoff
	}
	if floor > d {
		d = floor
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// sleepBackoff sleeps backoffDelay plus up to 50% jitter (so competing
// clients decorrelate), returning early (with the context's error) if
// ctx dies first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int, floor time.Duration) error {
	d := backoffDelay(base, attempt, floor)
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ErrTransport marks a round trip that never produced a daemon answer:
// connection refused or reset, DNS failure, a torn response body.
// Cluster routing treats it as evidence the replica is gone (mark down
// and fail over); WithRetry treats it as transient. It is distinct
// from cancellation - a dead caller context takes precedence and maps
// to ccsp.ErrCanceled instead.
var ErrTransport = errors.New("client: transport failure")

// transportError classifies a failed round trip: if the caller's context
// died, the error joins the ccsp cancellation taxonomy (ErrCanceled plus
// the context's own sentinel, like every Engine method); otherwise it
// wraps ErrTransport.
func transportError(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("client: %w: %w", ccsp.ErrCanceled, ctxErr)
	}
	return fmt.Errorf("%w: %w", ErrTransport, err)
}

// statusError maps a non-200 response back onto the typed taxonomy via
// the api.Error envelope. Responses without a decodable envelope (a
// proxy's HTML error page, say) degrade to a plain error carrying the
// status and body.
func statusError(path string, status int, body []byte) error {
	var envelope struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == nil {
		return fmt.Errorf("client: %s: status %d: %s", path, status, strings.TrimSpace(string(body)))
	}
	return fmt.Errorf("client: %s: %w", path, ccsp.SentinelError(envelope.Error))
}
