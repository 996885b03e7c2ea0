package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"time"

	"relatch/internal/cluster"
	"relatch/internal/engine"
	"relatch/internal/obs"
	"relatch/internal/queue"
)

// runServe is the -serve mode: a durable job queue pumping an engine,
// fronted by the HTTP job API. POST /jobs journals and admits a
// benchmark or inline Verilog netlist (429 + Retry-After when
// shedding), GET /jobs/{id} polls status with attempt/retry detail,
// GET /jobs/{id}/events streams live stage transitions and solver
// progress as Server-Sent Events, GET /jobs?state=dead inspects the
// dead letter, /healthz is liveness, /readyz readiness, GET /metrics
// the obs counters plus per-stage latency histograms. With -queue-dir
// the journal survives crashes: restarting on the same directory
// recovers every queued and in-flight job. Done jobs keep only their
// state in the journal; their results live in the cache, which defaults
// to <queue-dir>/cache so durable jobs keep durable results.
// -debug-addr exposes net/http/pprof on a second, private listener.
// SIGINT drains the listener gracefully, then the deferred closes stop
// the pump, queue and engine; a clean shutdown exits 0.
//
// With -peers/-node-id the node joins a static cluster: submissions
// for keys another shard owns are forwarded there, local cache misses
// try the owners' disk caches (every fetched blob is revalidated and
// re-certified before use), and dead peers degrade to local compute.
// -auth-file gates the public API behind per-client bearer tokens with
// token-bucket rate limits and admission quotas.
func runServe(ctx context.Context, o options) error {
	cacheDir := o.cacheDir
	if cacheDir == "" && o.queueDir != "" {
		cacheDir = filepath.Join(o.queueDir, "cache")
	}
	cache, err := engine.NewCache(0, cacheDir)
	if err != nil {
		return err
	}
	tr := obs.New("serve")
	defer tr.Finish()
	stream := tr.EnableStream(0)
	defer stream.Close()
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)
	metrics := obs.NewRegistry()
	var node *cluster.Node
	if o.peers != "" {
		specs, err := cluster.ParsePeers(o.peers)
		if err != nil {
			return err
		}
		if o.nodeID == "" {
			return usagef("-peers needs -node-id")
		}
		if node, err = cluster.New(cluster.Config{
			Self:    o.nodeID,
			Peers:   specs,
			Metrics: metrics,
		}); err != nil {
			return err
		}
		cache.SetPeer(node.FetchEntry)
		logger.Info("cluster member", "node", o.nodeID, "peers", node.Members()-1)
	} else if o.nodeID != "" {
		return usagef("-node-id needs -peers")
	}
	var auth *cluster.Auth
	if o.authFile != "" {
		if auth, err = cluster.OpenAuth(o.authFile, metrics); err != nil {
			return err
		}
		logger.Info("auth enabled", "clients", auth.Clients())
	}
	eng := engine.New(engine.Config{
		Workers:    o.jobs,
		Cache:      cache,
		JobTimeout: o.timeout,
		Metrics:    metrics,
	})
	defer eng.Close()
	q, err := queue.Open(queue.Config{
		Dir:         o.queueDir,
		Capacity:    o.queueCap,
		LeaseTTL:    o.leaseTTL,
		MaxAttempts: o.jobRetries,
		Metrics:     metrics,
		Events:      stream,
	})
	if err != nil {
		return err
	}
	defer q.Close()
	d, err := engine.NewDurable(engine.DurableConfig{
		Engine:  eng,
		Queue:   q,
		Tracer:  tr,
		Logger:  logger,
		Metrics: metrics,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	srv, err := engine.NewServer(engine.ServerConfig{
		Durable:        d,
		Tracer:         tr,
		Metrics:        metrics,
		Logger:         logger,
		RequestTimeout: o.serveTimeout,
		Stream:         stream,
		Cluster:        node,
		Auth:           auth,
	})
	if err != nil {
		return err
	}
	if o.debugAddr != "" {
		stop, err := serveDebug(o.debugAddr, logger)
		if err != nil {
			return err
		}
		defer stop()
	}
	return srv.ListenAndServe(ctx, o.serveAddr)
}

// serveDebug starts the private pprof listener and returns its
// shutdown func. The mux is deliberately separate from the public API
// mux: profiling endpoints never ride the serving address.
func serveDebug(addr string, logger *slog.Logger) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rar: debug listener: %w", err)
	}
	logger.Info("pprof debug server", "addr", ln.Addr().String())
	// Buffered so the Serve goroutine can always deposit its exit error
	// even when shutdown already won (relint chandisc bug class).
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("pprof debug server exit", "err", err)
		}
	}, nil
}
