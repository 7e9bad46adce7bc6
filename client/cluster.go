package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/cluster"
)

// Cluster routes queries across a fixed set of ccspd replicas, each
// serving the graphs a shared consistent-hash ring assigns it. Requests
// carry a graph ID (api.Request.Graph); the cluster sends each to the
// graph's owner, failing over along the ring to the next live replica
// that advertises the graph. A background prober keeps the liveness
// view current, and data-path transport failures mark replicas down
// immediately. Close releases the prober; a Cluster is safe for
// concurrent use.
//
// The typed-error contract matches Client: a replica's answer (success
// or typed failure) returns as-is, and "no live replica serves this
// graph" is an error wrapping ccsp.ErrUnavailable - the same sentinel
// a single daemon uses while loading.
type Cluster struct {
	ring    *cluster.Ring
	prober  *cluster.Prober
	clients map[string]*Client
	cancel  context.CancelFunc
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterOptions)

type clusterOptions struct {
	interval   time.Duration
	threshold  int
	clientOpts []Option
}

// WithProbeInterval overrides the health-probe period.
func WithProbeInterval(d time.Duration) ClusterOption {
	return func(o *clusterOptions) { o.interval = d }
}

// WithProbeThreshold overrides the consecutive-failure count after
// which a replica is marked down.
func WithProbeThreshold(n int) ClusterOption {
	return func(o *clusterOptions) { o.threshold = n }
}

// WithClientOptions applies per-replica Client options (WithRetry,
// WithHTTPClient, ...) to every member client; health probes share the
// transport of a configured WithHTTPClient.
func WithClientOptions(opts ...Option) ClusterOption {
	return func(o *clusterOptions) { o.clientOpts = append(o.clientOpts, opts...) }
}

// NewCluster builds a routing client over the replica base URLs in
// members. It probes every member once, synchronously, before
// returning - so a cluster whose replicas are up is routable
// immediately - then keeps probing in the background until Close.
func NewCluster(members []string, opts ...ClusterOption) *Cluster {
	var o clusterOptions
	for _, opt := range opts {
		opt(&o)
	}
	ring := cluster.NewRing(members)
	clients := make(map[string]*Client, len(ring.Members()))
	for _, m := range ring.Members() {
		clients[m] = New(m, o.clientOpts...)
	}
	// Probes travel the transport the member clients were configured with
	// (WithHTTPClient): replicas reachable only through it - custom TLS
	// roots, a proxy, a name-to-address map - are probed the way they are
	// queried. The prober bounds each probe with its own deadline.
	probeHTTP := &http.Client{Transport: New("", o.clientOpts...).hc.Transport}
	prober := cluster.NewProber(ring.Members(), cluster.Config{
		Interval:  o.interval,
		Threshold: o.threshold,
		Probe:     cluster.HTTPProbe(probeHTTP),
	})
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{ring: ring, prober: prober, clients: clients, cancel: cancel}
	c.prober.Sweep(ctx)
	go c.prober.Run(ctx)
	return c
}

// Close stops the background prober. In-flight queries finish.
func (c *Cluster) Close() { c.cancel() }

// Refresh runs one synchronous probe sweep, updating the liveness view
// immediately instead of waiting for the next background tick.
func (c *Cluster) Refresh(ctx context.Context) { c.prober.Sweep(ctx) }

// Live returns the replicas currently considered live, sorted.
func (c *Cluster) Live() []string { return c.prober.Live() }

// Members returns the full replica set, sorted.
func (c *Cluster) Members() []string { return c.ring.Members() }

// Owner returns the replica the ring assigns graph to, ignoring
// liveness (placement, not routing).
func (c *Cluster) Owner(graph string) (string, bool) { return c.ring.Owner(graph) }

// errNoReplica is the typed "nobody can serve this graph" outcome.
func errNoReplica(graph string) error {
	if graph == "" {
		return fmt.Errorf("client: %w: no live replica serves the default graph", ccsp.ErrUnavailable)
	}
	return fmt.Errorf("client: %w: no live replica serves graph %q", ccsp.ErrUnavailable, graph)
}

// unavailableResponse is errNoReplica in batch-position form.
func unavailableResponse(req api.Request) api.Response {
	return api.Response{Kind: req.Kind, Graph: req.Graph, Error: ccsp.APIError(errNoReplica(req.Graph))}
}

// tryReplicas runs call against the live replicas holding graph, in ring
// order, until one answers. A replica's typed answer - success or typed
// failure - ends the walk: it is the authoritative answer for that
// graph. Only a transport failure moves on to the next candidate, after
// marking the failed replica down so subsequent calls skip it.
func (c *Cluster) tryReplicas(ctx context.Context, graph string, call func(*Client) error) error {
	candidates := cluster.Route(c.ring, c.prober, graph)
	if len(candidates) == 0 {
		return errNoReplica(graph)
	}
	var lastErr error
	for _, m := range candidates {
		err := call(c.clients[m])
		if !errors.Is(err, ErrTransport) {
			return err
		}
		c.failover(m)
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("client: %w: every replica for graph %q failed: %w", ccsp.ErrUnavailable, graph, lastErr)
}

// Query answers one typed request on the replica owning req.Graph,
// failing over along the ring on transport failure (see tryReplicas).
func (c *Cluster) Query(ctx context.Context, req api.Request) (*api.Response, error) {
	var resp *api.Response
	err := c.tryReplicas(ctx, req.Graph, func(m *Client) (err error) {
		resp, err = m.Query(ctx, req)
		return err
	})
	return resp, err
}

// maxBatchRounds bounds Batch's failover loop: each round can only
// lose replicas (a retried position only re-routes after its replica
// was marked down), so the member count bounds useful rounds.
func (c *Cluster) maxBatchRounds() int { return len(c.clients) + 1 }

// Batch answers many requests, fanning the batch out as one sub-batch
// per owning replica, run concurrently, and merging the per-position
// responses back in request order. Per-position failures - typed query
// errors from a replica, and "no live replica holds this graph" 503s -
// answer in place with typed api.Errors; a dead replica never fails
// the whole batch. Positions orphaned by a replica dying mid-batch are
// re-routed to ring successors and, when none holds the graph, answer
// CodeUnavailable (convert with ccsp.SentinelError for errors.Is dispatch).
func (c *Cluster) Batch(ctx context.Context, reqs []api.Request) ([]api.Response, error) {
	resps := make([]api.Response, len(reqs))
	pending := make([]int, len(reqs))
	for i := range reqs {
		pending[i] = i
	}
	for round := 0; round < c.maxBatchRounds() && len(pending) > 0; round++ {
		// Route every pending position to the first live holder of its
		// graph; positions with no live holder answer unavailable now.
		groups := make(map[string][]int)
		var order []string
		for _, i := range pending {
			candidates := cluster.Route(c.ring, c.prober, reqs[i].Graph)
			if len(candidates) == 0 {
				resps[i] = unavailableResponse(reqs[i])
				continue
			}
			m := candidates[0]
			if _, seen := groups[m]; !seen {
				order = append(order, m)
			}
			groups[m] = append(groups[m], i)
		}

		// One concurrent sub-batch per replica.
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			retry []int
		)
		for _, m := range order {
			idxs := groups[m]
			wg.Add(1)
			go func(m string, idxs []int) {
				defer wg.Done()
				sub := make([]api.Request, len(idxs))
				for j, i := range idxs {
					sub[j] = reqs[i]
				}
				out, err := c.clients[m].Batch(ctx, sub)
				switch {
				case err == nil:
					for j, i := range idxs {
						resps[i] = out[j]
					}
				case errors.Is(err, ErrTransport) && ctx.Err() == nil:
					// The replica died mid-batch: down it and re-route its
					// positions next round.
					c.failover(m)
					mu.Lock()
					retry = append(retry, idxs...)
					mu.Unlock()
				default:
					// A typed whole-sub-batch failure (caller's context died,
					// oversized sub-batch, ...) answers its positions in place.
					apiErr := ccsp.APIError(err)
					for _, i := range idxs {
						resps[i] = api.Response{Kind: reqs[i].Kind, Graph: reqs[i].Graph, Error: apiErr}
					}
				}
			}(m, idxs)
		}
		wg.Wait()
		pending = retry
	}
	// Only reachable if replicas kept dying every round; the ring is out
	// of successors to try.
	for _, i := range pending {
		resps[i] = unavailableResponse(reqs[i])
	}
	return resps, nil
}

// Health probes the replica owning graph, failing over like Query. It
// reports the serving replica's health, which in a cluster describes
// that replica's default graph shape - use it for liveness, not graph
// metadata.
func (c *Cluster) Health(ctx context.Context, graph string) (*api.Health, error) {
	var h *api.Health
	err := c.tryReplicas(ctx, graph, func(m *Client) (err error) {
		h, err = m.Health(ctx)
		return err
	})
	return h, err
}
