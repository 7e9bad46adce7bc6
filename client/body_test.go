package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/congestedclique/ccsp/api"
)

// apspBody is an encoded n×n apsp answer, the way the daemon sends it.
func apspBody(t testing.TB, n int) ([]byte, api.Response) {
	t.Helper()
	dist := make(api.Matrix, n)
	for u := range dist {
		dist[u] = make([]int64, n)
		for v := range dist[u] {
			dist[u][v] = int64((u*31+v*17)%977) - 1
		}
	}
	resp := api.Response{Kind: api.KindAPSP, APSP: &api.APSPResult{Variant: api.APSPWeighted, Dist: dist}, Stats: &api.Stats{TotalRounds: 3}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp
}

// TestReadBody pins the buffer policy: an honest Content-Length is one
// allocation of exactly that size, a pooled buffer that fits is reused, an
// unknown or over-long length doubles, and nothing is cut at the limit.
func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 20<<10) // 320 KiB
	const noLimit = maxResponseBytes

	plain := func(r io.Reader) io.Reader { return r }
	for name, tc := range map[string]struct {
		size          int
		wrap          func(io.Reader) io.Reader
		contentLength int64
		buf           []byte
		wantCap       int // 0: any
	}{
		"honest length":           {len(data), plain, int64(len(data)), nil, len(data) + 1},
		"honest, one byte reads":  {9000, iotest.OneByteReader, 9000, nil, 9001},
		"EOF with the data":       {len(data), iotest.DataErrReader, int64(len(data)), nil, len(data) + 1},
		"pooled buffer fits":      {160, plain, 160, make([]byte, 0, minBodyBuffer), minBodyBuffer},
		"pooled buffer too small": {len(data), plain, int64(len(data)), make([]byte, 0, minBodyBuffer), len(data) + 1},
		"unknown length":          {len(data), plain, -1, nil, 0},
		"unknown, one byte reads": {9000, iotest.OneByteReader, -1, make([]byte, 0, 100), 0},
		"empty":                   {0, plain, 0, nil, 0},
		"empty, unknown":          {0, plain, -1, nil, 0},
	} {
		got, err := readBody(tc.wrap(bytes.NewReader(data[:tc.size])), tc.contentLength, noLimit, tc.buf)
		if err != nil || !bytes.Equal(got, data[:tc.size]) {
			t.Errorf("%s: read %d bytes (%v), want %d", name, len(got), err, tc.size)
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Errorf("%s: buffer of %d bytes, want %d", name, cap(got), tc.wantCap)
		}
	}

	// Past maxPresize the buffer grows to what was announced, not past it.
	big := make([]byte, maxPresize+maxPresize/2)
	got, err := readBody(bytes.NewReader(big), int64(len(big)), noLimit, nil)
	if err != nil || len(got) != len(big) || cap(got) != len(big)+1 {
		t.Errorf("body past maxPresize: %d bytes in a buffer of %d (%v), want %d in %d", len(got), cap(got), err, len(big), len(big)+1)
	}

	// The limit: at it is fine, one past it is an error, whatever the header says.
	for name, tc := range map[string]struct {
		size, contentLength, limit int64
		wantErr                    bool
	}{
		"at the limit":              {1000, 1000, 1000, false},
		"at the limit, unknown":     {1000, -1, 1000, false},
		"past the limit, unknown":   {1001, -1, 1000, true},
		"announced past the limit":  {10, 1001, 1000, true},
		"far past the limit, known": {64 << 10, -1, 1000, true},
	} {
		_, err := readBody(bytes.NewReader(data[:tc.size]), tc.contentLength, tc.limit, nil)
		if (err != nil) != tc.wantErr || (err != nil && !errors.Is(err, errBodyTooLarge)) {
			t.Errorf("%s: err = %v, want errBodyTooLarge: %v", name, err, tc.wantErr)
		}
	}

	// A failing reader's error comes back as it is.
	boom := errors.New("boom")
	if _, err := readBody(iotest.ErrReader(boom), -1, noLimit, nil); !errors.Is(err, boom) {
		t.Errorf("reader error: %v, want boom", err)
	}
}

// TestReadBodySmallAllocs: a point answer is read into the pooled buffer -
// no allocation at all once the pool is warm.
func TestReadBodySmallAllocs(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 160)
	buf := make([]byte, 0, minBodyBuffer)
	r := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		got, err := readBody(r, int64(len(body)), maxResponseBytes, buf[:0])
		if err != nil || len(got) != len(body) {
			t.Fatalf("read %d bytes (%v)", len(got), err)
		}
	}); allocs != 0 {
		t.Errorf("reading a 160-byte body allocates %v times, want 0", allocs)
	}
}

// TestResponseTooLarge: a body past the client's limit is reported as that -
// not cut at the limit and then blamed on its JSON - and is not a transport
// failure, so neither WithRetry nor a cluster's failover fetches it again.
func TestResponseTooLarge(t *testing.T) {
	for name, announce := range map[string]bool{"streamed": false, "announced": true} {
		var hits atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			const size = 8 << 10
			if announce {
				w.Header().Set("Content-Length", strconv.Itoa(size))
			}
			for sent := 0; sent < size; sent += 1 << 10 {
				w.Write(bytes.Repeat([]byte(" "), 1<<10)) //nolint:errcheck
				if !announce {
					w.(http.Flusher).Flush()
				}
			}
		}))
		c := New(ts.URL, WithRetry(3, time.Millisecond))
		c.maxBody = 4 << 10
		_, err := c.Query(context.Background(), api.Diameter())
		if !errors.Is(err, errBodyTooLarge) || errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "4096 bytes") {
			t.Errorf("%s: err = %v, want errBodyTooLarge naming the limit and no ErrTransport", name, err)
		}
		if got := hits.Load(); got != 1 {
			t.Errorf("%s: the oversized body was fetched %d times, want once", name, got)
		}
		if _, err := c.Health(context.Background()); !errors.Is(err, errBodyTooLarge) {
			t.Errorf("%s: GET: err = %v, want errBodyTooLarge", name, err)
		}
		ts.Close()
	}
}

// tornServer answers every request with the given raw bytes and closes the
// connection.
func tornServer(t *testing.T, raw string) (url string, hits *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hits = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			hits.Add(1)
			go func() {
				defer conn.Close()
				if req, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
					io.Copy(io.Discard, req.Body) //nolint:errcheck
				}
				conn.Write([]byte(raw)) //nolint:errcheck
			}()
		}
	}()
	return "http://" + ln.Addr().String(), hits
}

// TestLyingContentLength: a Content-Length is a claim. A server announcing
// half a gigabyte and sending ten bytes costs the client maxPresize, not
// what was announced, and the short body is what a torn one has always been:
// a transport failure, retried and failed over.
func TestLyingContentLength(t *testing.T) {
	const announced = 512 << 20
	for name, raw := range map[string]string{
		"lying length": "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(announced) + "\r\n\r\n{\"kind\":\"d",
		"torn length":  "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 45\r\n\r\n{\"kind\":\"d",
		"torn chunk":   "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n2d\r\n{\"kind\":\"d",
	} {
		url, hits := tornServer(t, raw)
		c := New(url, WithRetry(2, time.Millisecond))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Query(context.Background(), api.Diameter())
		runtime.ReadMemStats(&after)

		if !errors.Is(err, ErrTransport) {
			t.Errorf("%s: err = %v, want ErrTransport", name, err)
		}
		if got := hits.Load(); got != 3 {
			t.Errorf("%s: %d attempts, want 3 (a short body is retryable)", name, got)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 3*maxPresize+(4<<20) {
			t.Errorf("%s: three attempts allocated %d MiB for ten bytes each (%d MiB announced)", name, got>>20, announced>>20)
		}
	}
}

// TestNoContentLength: a server that announces no length (chunked: it
// flushes as it goes, or a proxy re-framed it) is answered as correctly as
// one that does, large body included.
func TestNoContentLength(t *testing.T) {
	body, want := apspBody(t, 200) // ~150 KiB: several doublings past the pooled buffer
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		for rest := body; len(rest) > 0; {
			n := min(len(rest), 5000)
			w.Write(rest[:n]) //nolint:errcheck
			w.(http.Flusher).Flush()
			rest = rest[n:]
		}
	}))
	defer ts.Close()
	var sawLength atomic.Int64
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err == nil {
			sawLength.Store(resp.ContentLength)
		}
		return resp, err
	})}))
	got, err := c.Query(context.Background(), api.APSP(api.APSPAuto))
	if err != nil {
		t.Fatal(err)
	}
	if sawLength.Load() != -1 {
		t.Fatalf("the test server announced Content-Length %d; it was meant not to", sawLength.Load())
	}
	if !reflect.DeepEqual(*got, want) {
		t.Error("chunked apsp answer decoded differently from what was sent")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// knearestBody is an encoded knearest answer of n lists of k neighbours.
func knearestBody(t testing.TB, n, k int) []byte {
	t.Helper()
	lists := make(api.NeighborLists, n)
	for v := range lists {
		lists[v] = make([]api.Neighbor, k)
		for j := range lists[v] {
			lists[v][j] = api.Neighbor{Node: (v*7 + j*13) % n, Dist: int64(v%10 + 3*j), Hops: j, FirstHop: (v+1)%n - j%2}
		}
	}
	body, err := json.Marshal(api.Response{Kind: api.KindKNearest, KNearest: &api.KNearestResult{K: k, Neighbors: lists}})
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// largeBodyServer answers apsp with the n×n apspBody and knearest(k) with
// knearestBody(n, k), each under its Content-Length; bodies holds them by
// the request's cache key.
func largeBodyServer(t testing.TB, n int) (url string, bodies map[string][]byte) {
	t.Helper()
	bodies = map[string][]byte{}
	bodies[api.APSP(api.APSPAuto).CacheKey()], _ = apspBody(t, n)
	for k := 4; k <= 11; k++ {
		bodies[api.KNearest(k).CacheKey()] = knearestBody(t, n, k)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := api.DecodeRequest(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body := bodies[req.CacheKey()]
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts.URL, bodies
}

// TestLargeBodyRecycled: a body over maxPooledBody is read into a buffer of
// largeBodies that goes back once the body is decoded, so nothing decoded
// may point into it. Four clients ask apsp and knearest (k = 4…11, bodies
// growing inside one size class) in turn and hold every answer while later
// queries reuse the buffers; each held answer must still equal a fresh
// decode of its body.
func TestLargeBodyRecycled(t *testing.T) {
	url, bodies := largeBodyServer(t, 300)
	c := New(url)
	type held struct {
		req  api.Request
		resp *api.Response
	}
	answers := make([][]held, 4)
	errs := make(chan error, len(answers))
	for g := range answers {
		go func() {
			for round := 0; round < 2; round++ {
				for k := 4; k <= 11; k++ {
					for _, req := range []api.Request{api.APSP(api.APSPAuto), api.KNearest(k)} {
						resp, err := c.Query(context.Background(), req)
						if err != nil {
							errs <- err
							return
						}
						answers[g] = append(answers[g], held{req, resp})
					}
				}
			}
			errs <- nil
		}()
	}
	for range answers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, held := range answers {
		for _, h := range held {
			var want api.Response
			if err := json.Unmarshal(bodies[h.req.CacheKey()], &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*h.resp, want) {
				t.Fatalf("a held %s answer changed after its body's buffer was reused", h.req.CacheKey())
			}
		}
	}
}

// TestWarmAPSPBodyBytes: a warm apsp query allocates its decoded answer and
// not its body, which is read into a recycled buffer - at most the answer
// plus 128 KiB for both ends' net/http and the envelope. A 360 KB body
// read into a fresh buffer would not fit. Skipped under -race, where
// sync.Pool drops a share of its Puts.
func TestWarmAPSPBodyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	const n = 300
	url, bodies := largeBodyServer(t, n)
	c := New(url)
	ctx := context.Background()
	bytes := uint64(math.MaxUint64)
	for run := 0; run < 6; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.Query(ctx, api.APSP(api.APSPAuto)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if run > 0 { // run 0 fills the pool
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
	}
	answer := uint64(n*n*8 + n*27) // cells and row headers
	body := len(bodies[api.APSP(api.APSPAuto).CacheKey()])
	t.Logf("a warm apsp query allocates %d bytes for a %d-byte answer and a %d-byte body", bytes, answer, body)
	if budget := answer + 128<<10; bytes > budget {
		t.Errorf("a warm apsp query allocates %d bytes, want <= %d (a %d-byte answer; the %d-byte body is recycled)", bytes, budget, answer, body)
	}
}
