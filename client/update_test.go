package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/server"
)

// dynHarness serves a DynamicEngine over the unit-weight path 0-1-...-7
// as the default graph, with a client pointed at it.
func dynHarness(t testing.TB) (*ccsp.DynamicEngine, *Client) {
	t.Helper()
	gr := ccsp.NewGraph(8)
	for v := 1; v < 8; v++ {
		gr.MustAddEdge(v-1, v, 1)
	}
	eng, err := ccsp.NewEngine(context.Background(), gr, ccsp.Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dyn := ccsp.NewDynamicEngine(eng)
	t.Cleanup(dyn.Close)
	srv, err := server.New(server.Config{Deferred: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDynamicGraph("", dyn); err != nil {
		t.Fatal(err)
	}
	srv.SetReady()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return dyn, New(ts.URL)
}

// TestClientUpdateAndEpoch: the synchronous mutation round trip - the
// response epoch serves immediately and later queries see the new graph.
func TestClientUpdateAndEpoch(t *testing.T) {
	dyn, c := dynHarness(t)
	ctx := context.Background()

	ep, err := c.Epoch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != 0 {
		t.Fatalf("fresh epoch = %d, want 0", ep.Epoch)
	}

	ur, err := c.Update(ctx, "", []api.EdgeUpdate{{U: 6, V: 7, W: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 || ur.Applied != 1 || ur.Pending {
		t.Fatalf("update response = %+v, want epoch 1, applied 1, published", ur)
	}
	if got := dyn.Epoch(); got != 1 {
		t.Fatalf("engine epoch = %d after sync update, want 1", got)
	}
	resp, err := c.Query(ctx, api.Distance(0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Distance.Distance != 106 {
		t.Fatalf("post-update distance = %d, want 106", resp.Distance.Distance)
	}
}

// TestClientUpdateAsync: the async variant reports Pending and the
// target epoch; Epoch polling observes the publish.
func TestClientUpdateAsync(t *testing.T) {
	_, c := dynHarness(t)
	ctx := context.Background()

	ur, err := c.UpdateAsync(ctx, "", []api.EdgeUpdate{{U: 0, V: 1, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 || !ur.Pending {
		t.Fatalf("async response = %+v, want epoch 1 pending", ur)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ep, err := c.Epoch(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if ep.Epoch >= ur.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch stuck at %d", ep.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientUpdateErrors: typed errors surface through the client - a
// self-loop is invalid (422) and an unknown graph is 404; neither burns
// an epoch.
func TestClientUpdateErrors(t *testing.T) {
	_, c := dynHarness(t)
	ctx := context.Background()

	if _, err := c.Update(ctx, "", []api.EdgeUpdate{{U: 3, V: 3, W: 1}}); err == nil {
		t.Fatal("self-loop update succeeded")
	}
	if _, err := c.Update(ctx, "nope", []api.EdgeUpdate{{U: 0, V: 1, W: 1}}); err == nil {
		t.Fatal("unknown-graph update succeeded")
	}
	if _, err := c.Epoch(ctx, "nope"); err == nil {
		t.Fatal("unknown-graph epoch succeeded")
	}
	// A graph ID outside the charset never reaches the URL: "roads#x"
	// would silently ask for "roads", "a&graph=b" would send two
	// parameters.
	for _, id := range []string{"roads#x", "a&graph=b"} {
		if _, err := c.Epoch(ctx, id); !errors.Is(err, api.ErrMalformed) {
			t.Errorf("Epoch(%q): err = %v, want api.ErrMalformed", id, err)
		}
	}
	ep, err := c.Epoch(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != 0 {
		t.Fatalf("epoch after rejected updates = %d, want 0", ep.Epoch)
	}
}
