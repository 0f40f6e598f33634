package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// loopServer is an in-process HTTP server on a loopback listener.
type loopServer struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// startServer serves h on 127.0.0.1 at a free port.
func startServer(h http.Handler, listening func(string)) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	if listening != nil {
		listening(ln.Addr().String())
	}
	s := &loopServer{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the listener and every connection, and waits for the
// serving goroutine to exit.
func (s *loopServer) close() {
	_ = s.srv.Close() // the listener's close error is of no use here
	<-s.done
}

// handlerSwap lets a listener exist, and so give its URL to the cluster
// member list, before the node it serves is built.
type handlerSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (hs *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hs.mu.RLock()
	h := hs.h
	hs.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (hs *handlerSwap) set(h http.Handler) {
	hs.mu.Lock()
	hs.h = h
	hs.mu.Unlock()
}

// spanHeader carries the client's span id to the server.
const spanHeader = "X-Perfbench-Span"

// tracedHandler wraps the serve handler: while a recorder is installed it
// opens a "handler" span around every request under the client's span and
// carries it on the request context, so the peer RPCs the request causes
// nest beneath it.
type tracedHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if rec == nil || err != nil {
		t.next.ServeHTTP(w, r)
		return
	}
	sp := rec.childOf(parent, "handler")
	t.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
	sp.end(nil)
}

// httpClient posts queries to a serve.Server.
type httpClient struct {
	c   *http.Client
	url string
}

func newHTTPClient(url string, conns int) *httpClient {
	return &httpClient{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}, url: url}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// query POSTs one request body to /query. With a span, the request asks
// for the program's span tree (?debug=trace) and carries the span id.
func (h *httpClient) query(ctx context.Context, body []byte, sp *tspan) (*serve.QueryResponse, error) {
	url := h.url + "/query"
	if sp != nil {
		url += "?debug=trace"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out serve.QueryResponse
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("/query: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("/query: decode: %w", err)
	}
	return &out, nil
}

// waitHealthy polls /healthz until it answers 200.
func (h *httpClient) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := h.c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("server at %s not healthy: %w", h.url, errors.Join(err, ctx.Err()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingTransport is the cluster coordinator's RPC transport: it counts
// peer RPCs, their bytes and their round-trip times, and while a recorder
// is installed opens a "peer_rpc" span under the request's handler span.
type countingTransport struct {
	base *http.Transport
	// op counts the RPCs of the measured windows; nil outside them.
	op atomic.Pointer[opCount]

	rpcs, bytes atomic.Int64
	mu          sync.Mutex
	durs        []float64 // µs, per completed RPC
	tracing     atomic.Bool
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	var sp *tspan
	if t.tracing.Load() {
		sp = spanFrom(req.Context()).child("peer_rpc")
	}
	op := t.op.Load()
	if op != nil {
		op.attempted.Add(1)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		if op != nil {
			op.failed.Add(1)
		}
	}
	if err != nil {
		sp.end(nil)
		return nil, err
	}
	reqBytes := max(req.ContentLength, 0)
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) {
		t.rpcs.Add(1)
		t.bytes.Add(reqBytes + n)
		d := us(time.Since(start))
		t.mu.Lock()
		t.durs = append(t.durs, d)
		t.mu.Unlock()
		sp.set("bytes", reqBytes+n)
		sp.end(nil)
	}}
	return resp, nil
}

// CloseIdleConnections lets cluster.Node.Close release the pooled
// connections.
func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// snapshot returns the RPC count, byte count and durations so far.
func (t *countingTransport) snapshot() (rpcs, bytes int64, durs []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rpcs.Load(), t.bytes.Load(), append([]float64(nil), t.durs...)
}

// countingBody counts the bytes read from a response body and reports
// them once, on Close.
type countingBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingBody) Close() error {
	err := c.rc.Close()
	c.once.Do(func() { c.done(c.n) })
	return err
}
