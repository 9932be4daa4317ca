package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
)

// The served stack, as `tixserve -quiet -replicas 2 -shards 2 -cache-bytes
// cacheBytes -ingest` builds it, with tixserve's defaults for every other
// flag (25ms hedge floor, 100 results, 1 MiB bodies, no admission
// control, no query timeout).
const (
	replicas   = 2
	shards     = 2
	cacheBytes = 8 << 20
	hedgeAfter = 25 * time.Millisecond
)

// stack is one running server over its replicas.
type stack struct {
	replicas []*shard.DB
	fleet    *fleet.Fleet
	reg      *metrics.Registry
	http     *http.Server
	done     chan error
	base     string
}

// buildStack loads the corpus into the replicas, fronts them with the
// fleet and the HTTP server on a loopback port, and returns once /readyz
// answers ready. With a tracer, the decorators of trace.go wrap each
// layer boundary. The fleet, replicas and HTTP middleware share one fresh
// registry, as they share the process-wide one in tixserve.
func buildStack(c *corpus, tr *tracer, client *http.Client) (*stack, time.Duration, error) {
	start := time.Now()
	st := &stack{reg: metrics.NewRegistry()}
	bs := make([]fleet.Backend, 0, replicas)
	for i := 0; i < replicas; i++ {
		d := shard.New(shard.Options{Shards: shards, Stemming: true, CacheBytes: cacheBytes, Metrics: st.reg})
		d.SetLimits(exec.Limits{})
		for _, doc := range c.docs {
			if err := d.LoadReader(doc.name, strings.NewReader(doc.xml)); err != nil {
				st.close()
				return nil, 0, fmt.Errorf("replica %d: %w", i, err)
			}
		}
		d.Stats() // force index construction before serving
		st.replicas = append(st.replicas, d)
		bs = append(bs, tr.replica(i, d))
	}
	f, err := fleet.New(fleet.Config{
		HedgeAfter:  hedgeAfter,
		PanicErrors: []error{shard.ErrPanic},
		Metrics:     st.reg,
	}, bs...)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.fleet = f
	backend := tr.backend(f)
	backend.Stats()
	s := server.New(backend)
	s.EnableIngest = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.base = "http://" + ln.Addr().String()
	st.http = &http.Server{
		Handler:           tr.handler(s.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	st.done = make(chan error, 1)
	go func() { st.done <- st.http.Serve(ln) }()
	if err := st.waitReady(client); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// waitReady polls /readyz until it answers ready.
func (st *stack) waitReady(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(st.base + "/readyz")
		if err == nil {
			var body server.ReadyzResponse
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && body.Status == "ready" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the server and releases the replicas' background work.
func (st *stack) close() error {
	var err error
	if st.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.http.Shutdown(ctx)
		cancel()
		if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	for _, d := range st.replicas {
		d.WaitCompaction()
		d.Close()
	}
	return err
}
