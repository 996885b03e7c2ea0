package engine

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/cluster"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/queue"
	"relatch/internal/sta"
	"relatch/internal/verilog"
)

// maxSubmitBody bounds a POST /jobs payload; inline Verilog sources are
// at most a few hundred kilobytes, so 8 MiB is generous.
const maxSubmitBody = 8 << 20

// maxForwarded bounds the forwarded-job table: the FIFO of job IDs this
// node routed to peers so later polls can be proxied. Aged-out IDs
// answer 404 like any unknown job — the owner still has the record.
const maxForwarded = 4096

// ServerConfig configures the HTTP frontend.
type ServerConfig struct {
	// Durable is the queue-backed execution layer behind every route.
	// Required. The server does not own its lifecycle: the caller closes
	// it (then the queue, then the engine) after shutdown.
	Durable *Durable
	// Metrics, when non-nil, is rendered into /metrics and receives each
	// forward's span totals. Serve mode shares it with the queue and the
	// durable layer, so their counters and span totals render there too.
	Metrics *obs.Registry
	// Logger receives request/submission logs (nil = discard).
	Logger *slog.Logger
	// RequestTimeout bounds each HTTP handler (0 = no limit). Jobs are
	// asynchronous, so this only cuts slow clients, not running solves.
	// The SSE events route is exempt: it is long-lived by design and
	// bounded by client disconnect and stream close instead.
	RequestTimeout time.Duration
	// Stream, when non-nil, feeds GET /jobs/{id}/events: the live stream
	// the queue publishes stage events into and the pump publishes each
	// job's solver feed into. Without it the events route answers 501.
	Stream *obs.Stream
	// Cluster, when non-nil, makes this node one shard of a multi-node
	// deployment: submissions for keys another node owns are forwarded
	// there, the internal peer routes (/internal/v1/...) are mounted,
	// and the cache gains the peer tier. Peer answers are trusted for
	// routing only — cached claims always pass local revalidation.
	Cluster *cluster.Node
	// Auth, when non-nil, gates the public API behind per-client bearer
	// tokens with rate limits and quotas. Health, readiness, metrics and
	// the internal peer routes stay open: the first three feed probes
	// and scrapers, and peers authenticate nothing because the trust
	// model never believes their payloads anyway.
	Auth *cluster.Auth
}

// Server is the rar -serve HTTP frontend: POST /jobs journals and
// admits a job (202, or 200 straight from cache in degraded mode, or
// 429 + Retry-After when shedding), GET /jobs/{id} polls status with
// attempt/retry detail and, once done, the result the durable layer
// resolves through the engine cache, GET /jobs?state= lists status rows
// without results (including the dead letter), /healthz is liveness,
// /readyz is readiness, and GET /metrics serves the obs counters in
// Prometheus text format. Every response carries an X-Request-Id.
type Server struct {
	cfg ServerConfig

	mu        sync.Mutex
	forwarded map[string]string // guarded by mu (job ID → owning peer ID)
	fifo      []string          // guarded by mu (insertion order, bounds forwarded)
}

// NewServer builds the HTTP frontend over a durable layer.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Durable == nil {
		return nil, fmt.Errorf("engine: %w: server needs a durable layer", ErrBadConfig)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DiscardLogger()
	}
	return &Server{cfg: cfg}, nil
}

// ctxKey keys the request ID in a request context.
type ctxKey int

const requestIDKey ctxKey = 0

// requestID returns the request's ID, assigned by the middleware.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// maxRequestID bounds an incoming X-Request-Id that the server keeps.
const maxRequestID = 128

// validRequestID reports whether an incoming request ID may be kept:
// 1–128 bytes of [A-Za-z0-9._:-]. The ID is echoed, logged and journaled
// with the job, so anything longer or stranger is replaced.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestID {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// withRequestID honours a valid incoming X-Request-Id or mints one, sets
// it on the response, and threads it through the request context so job
// submissions can journal it.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			var buf [8]byte
			rand.Read(buf[:])
			id = hex.EncodeToString(buf[:])
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

// Handler returns the route table, wrapped in the request-ID middleware
// and the request timeout. The SSE events route mounts outside the
// timeout wrapper: http.TimeoutHandler buffers the response and does
// not implement http.Flusher, which would break streaming.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.withAuth(s.handleSubmit))
	mux.HandleFunc("GET /jobs", s.withAuth(s.handleList))
	mux.HandleFunc("GET /jobs/{id}", s.withAuth(s.handleStatus))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness: the process is up and serving HTTP. Nothing else —
		// an overloaded instance is alive, just not ready.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.Cluster != nil {
		// The peer protocol: forwarded submissions run locally (never
		// re-forwarded — no routing loops), status polls answer from the
		// local queue only, and the cache route serves raw claim blobs
		// the fetching peer revalidates itself.
		mux.HandleFunc("POST /internal/v1/jobs", s.handleInternalSubmit)
		mux.HandleFunc("GET /internal/v1/jobs/{id}", s.handleInternalStatus)
		mux.HandleFunc("GET /internal/v1/cache/{key}", s.handleCacheEntry)
	}
	var timed http.Handler = mux
	if s.cfg.RequestTimeout > 0 {
		timed = http.TimeoutHandler(mux, s.cfg.RequestTimeout, "request timed out\n")
	}
	outer := http.NewServeMux()
	outer.HandleFunc("GET /jobs/{id}/events", s.withAuth(s.handleEvents))
	outer.Handle("/", timed)
	return withRequestID(outer)
}

// withAuth gates a public route behind the bearer-token policy layer.
// Without an Auth config every request passes — single-node deployments
// keep their open API.
func (s *Server) withAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a := s.cfg.Auth
		if a == nil {
			next(w, r)
			return
		}
		// The auth-scheme is case-insensitive (RFC 7235 §2.1).
		token := r.Header.Get("Authorization")
		if scheme, cred, ok := strings.Cut(token, " "); ok && strings.EqualFold(scheme, "Bearer") {
			token = cred
		}
		client, err := a.Admit(token, time.Now())
		switch {
		case errors.Is(err, cluster.ErrUnauthorized):
			w.Header().Set("WWW-Authenticate", `Bearer realm="relatch"`)
			httpError(w, http.StatusUnauthorized, err)
			return
		case errors.Is(err, cluster.ErrRateLimited), errors.Is(err, cluster.ErrQuotaExhausted):
			// Both are 429; quota exhaustion just has a much longer
			// retry horizon, which the body spells out.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		s.cfg.Logger.Debug("admitted", "client", client, "request_id", requestID(r))
		next(w, r)
	}
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully (in-flight requests get a drain window). A clean shutdown
// returns nil, so a SIGINT-driven exit reports success.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("engine: serve: %w", err)
	}
	s.cfg.Logger.Info("serving", "addr", ln.Addr().String())
	// The buffer is load-bearing (relint chandisc bug class): when ctx
	// wins the select below, nobody is receiving — an unbuffered send
	// from the Serve goroutine would leak it until the final drain.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("engine: serve: %w", err)
	case <-ctx.Done():
	}
	s.cfg.Logger.Info("shutting down")
	// Close the event stream first: SSE handlers block in Next and would
	// otherwise hold Shutdown for the full drain window.
	s.cfg.Stream.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("engine: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("engine: serve: %w", err)
	}
	return nil
}

// JobRequest is the POST /jobs payload. Exactly one of Bench (an
// ISCAS'89 profile name) or Verilog (inline structural source) selects
// the circuit. It is also the shape journaled into the durable queue,
// which is what makes crash recovery possible: a replayed record
// rebuilds the job from this request and re-runs the full
// solve+certify pipeline.
type JobRequest struct {
	Bench   string `json:"bench,omitempty"`
	Verilog string `json:"verilog,omitempty"`

	Approach string `json:"approach"`
	// C is the error-detecting overhead factor (default 1.0).
	C          *float64 `json:"c,omitempty"`
	Method     string   `json:"method,omitempty"`
	GateModel  bool     `json:"gate_model,omitempty"`
	PivotLimit int      `json:"pivot_limit,omitempty"`
	TimeoutMS  int      `json:"timeout_ms,omitempty"`
}

// jobStatus is the JSON shape of a submitted job, for POST and GET.
type jobStatus struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	// Attempts counts started attempts; MaxAttempts is the retry budget.
	Attempts    int    `json:"attempts,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
	Error       string `json:"error,omitempty"`
	// NextRetryMS is how long until a retrying job becomes eligible
	// again.
	NextRetryMS float64  `json:"next_retry_ms,omitempty"`
	Result      *Summary `json:"result,omitempty"`
	RuntimeMS   float64  `json:"runtime_ms,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submitJob(w, r, false)
}

// handleInternalSubmit accepts a submission forwarded by a peer. It is
// the same pipeline with forwarding disabled: the sender already routed
// the key here, and a second hop could only loop.
func (s *Server) handleInternalSubmit(w http.ResponseWriter, r *http.Request) {
	s.submitJob(w, r, true)
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, internal bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmitBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("engine: bad request: %w", err))
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("engine: bad request: %w", err))
		return
	}
	if !internal && s.cfg.Cluster != nil && s.forwardSubmit(w, r, req, body) {
		return
	}
	d := s.cfg.Durable
	// Degraded mode: with the worker pool saturated or the queue at
	// capacity, cached keys are still answerable without consuming
	// either — serve them synchronously instead of queueing or shedding.
	if d.Saturated() || d.Queue().Full() {
		if out, ok := d.CachedOutcome(r.Context(), req); ok {
			s.cfg.Logger.Info("served from cache (degraded mode)", "key", out.Key.Short(),
				"request_id", requestID(r))
			writeJSON(w, http.StatusOK, jobStatus{
				ID: "cached-" + out.Key.Short(), Key: out.Key.String(), Status: "done",
			}.withResult(out))
			return
		}
	}
	j, err := d.Enqueue(req, requestID(r))
	switch {
	case errors.Is(err, queue.ErrFull):
		w.Header().Set("Retry-After", "2")
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, queue.ErrClosed), errors.Is(err, queue.ErrCrashed):
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.cfg.Logger.Info("job accepted", "id", j.ID, "key", j.Key, "request_id", requestID(r))
	// Retry-After on the 202 is the poll-interval hint.
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusAccepted, s.statusOf(j))
}

// forwardSubmit routes a submission to the shard that owns its content
// address and relays the answer. It reports false whenever the local
// pipeline should run instead — the key is self-owned, the request is
// malformed (the local path produces the right 400), or the owner is
// unreachable (degrade, never fail: compute locally rather than bounce
// the client).
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, req JobRequest, body []byte) bool {
	job, err := BuildJob(req)
	if err != nil {
		return false
	}
	key, err := job.Key()
	if err != nil {
		return false
	}
	peerID, local := s.cfg.Cluster.Route(key.String(), time.Now())
	if local {
		return false
	}
	// The forward leg is traced under its own cluster.forward root; its
	// spans fold into the metrics totals when it returns.
	tr := obs.New("cluster.forward")
	defer s.cfg.Metrics.Fold(tr)
	sp, ctx := tr.Root(), obs.WithTracer(r.Context(), tr)
	sp.Attr("peer", peerID)
	sp.Attr("key", key.Short())
	sp.Attr("request_id", requestID(r))
	code, resp, err := s.cfg.Cluster.ForwardJob(ctx, peerID, body, requestID(r))
	if err != nil {
		sp.Add("fallback_local", 1)
		s.cfg.Logger.Warn("forward failed; computing locally",
			"peer", peerID, "key", key.Short(), "request_id", requestID(r), "err", err)
		return false
	}
	// The owner's answer stands — including a 429: its shedding decision
	// reflects the load where the job would actually run, and absorbing
	// the overflow here would defeat it.
	if code == http.StatusAccepted || code == http.StatusOK {
		var js jobStatus
		if jerr := json.Unmarshal(resp, &js); jerr == nil && js.ID != "" {
			s.rememberForward(js.ID, peerID)
		}
	}
	s.cfg.Logger.Info("job forwarded", "peer", peerID, "key", key.Short(),
		"code", code, "request_id", requestID(r))
	w.Header().Set("X-Cluster-Node", peerID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(resp)
	return true
}

// rememberForward records which peer owns a forwarded job so later
// polls on this node can be proxied there.
func (s *Server) rememberForward(id, peerID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.forwarded == nil {
		s.forwarded = make(map[string]string, 64)
	}
	if _, ok := s.forwarded[id]; !ok {
		s.fifo = append(s.fifo, id)
	}
	s.forwarded[id] = peerID
	for len(s.fifo) > maxForwarded {
		delete(s.forwarded, s.fifo[0])
		s.fifo = s.fifo[1:]
	}
}

// forwardedPeer looks up the owner of a job this node forwarded.
func (s *Server) forwardedPeer(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.forwarded[id]
	return p, ok
}

// handleCacheEntry serves the raw on-disk claim blob for a key — the
// peer cache protocol. The response carries claims, never derived
// results, and the fetching peer revalidates them before use, so this
// route needs no authentication to be safe.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	key, err := ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	raw, err := s.cfg.Durable.Engine().Cache().RawEntry(r.Context(), key)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("engine: no cache entry %s", key.Short()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleInternalStatus answers a proxied status poll from the local
// queue only — no second proxy hop.
func (s *Server) handleInternalStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.cfg.Durable.Queue().Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("engine: no job %q", r.PathValue("id")))
		return
	}
	s.writeStatus(w, r, j)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.cfg.Durable.Queue().Get(id)
	if ok {
		s.writeStatus(w, r, j)
		return
	}
	// A job this node forwarded lives in the owner's queue; proxy the
	// poll so the client can keep talking to whichever node accepted it.
	if peerID, fwd := s.forwardedPeer(id); fwd && s.cfg.Cluster != nil {
		code, resp, err := s.cfg.Cluster.JobStatus(r.Context(), peerID, id)
		if err == nil {
			w.Header().Set("X-Cluster-Node", peerID)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			w.Write(resp)
			return
		}
		s.cfg.Logger.Warn("status proxy failed", "peer", peerID, "id", id, "err", err)
	}
	httpError(w, http.StatusNotFound, fmt.Errorf("engine: no job %q", id))
}

// writeStatus answers a status poll for one local job. A done job's
// result comes from the durable layer's cache lookup; a job it had to
// re-enqueue answers with its new state, to be polled again.
func (s *Server) writeStatus(w http.ResponseWriter, r *http.Request, j queue.Job) {
	j, out, err := s.cfg.Durable.Result(r.Context(), j)
	switch {
	case err != nil:
		// The read was cut short by its own context, or the queue could
		// not take the re-enqueue: there is no answer yet.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case out != nil:
		writeJSON(w, http.StatusOK, s.statusOf(j).withResult(out))
	default:
		writeJSON(w, http.StatusOK, s.statusOf(j))
	}
}

// handleList lists status rows without results: resolving every done
// job would restore each one from the cache.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	want := r.URL.Query().Get("state")
	jobs := s.cfg.Durable.Queue().Jobs()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		js := s.statusOf(j)
		if want != "" && js.Status != want {
			continue
		}
		out = append(out, js)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if ok, reason := s.cfg.Durable.Ready(); !ok {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the registry (span totals included), then the
// engine counters and the point-in-time gauges, read from Stats at
// scrape time so each gauge has one writer and one definition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WriteMetrics(w)
	eng := s.cfg.Durable.Engine()
	st := eng.Stats()
	fmt.Fprintf(w, "relatch_engine_jobs_total{outcome=\"completed\"} %d\n", st.Completed)
	fmt.Fprintf(w, "relatch_engine_jobs_total{outcome=\"failed\"} %d\n", st.Failed)
	fmt.Fprintf(w, "relatch_engine_submitted_total %d\n", st.Submitted)
	fmt.Fprintf(w, "relatch_engine_deduplicated_total %d\n", st.Deduplicated)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"hit\"} %d\n", st.Cache.Hits)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"disk_hit\"} %d\n", st.Cache.DiskHits)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"miss\"} %d\n", st.Cache.Misses)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"stored\"} %d\n", st.Cache.Stores)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"evicted\"} %d\n", st.Cache.Evictions)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"poisoned\"} %d\n", st.Cache.Poisoned)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"peer_hit\"} %d\n", st.Cache.PeerHits)
	fmt.Fprintf(w, "relatch_engine_cache_total{event=\"peer_rejected\"} %d\n", st.Cache.PeerRejected)
	fmt.Fprintf(w, "relatch_engine_workers %d\n", eng.Workers())
	fmt.Fprintf(w, "relatch_engine_workers_busy %d\n", eng.WorkersBusy())
	fmt.Fprintf(w, "relatch_cache_entries %d\n", eng.Cache().Len())
	qs := s.cfg.Durable.Queue().Stats()
	fmt.Fprintf(w, "relatch_queue_depth %d\n", qs.Depth)
	fmt.Fprintf(w, "relatch_queue_leased %d\n", qs.Leased)
	fmt.Fprintf(w, "relatch_queue_retrying %d\n", qs.Retrying)
	fmt.Fprintf(w, "relatch_queue_done %d\n", qs.Done)
	fmt.Fprintf(w, "relatch_queue_dead %d\n", qs.Dead)
}

// BuildJob turns an API request into an engine job: build the circuit,
// derive its clocking, and carry the options over. It is deterministic
// in the request, so the durable layer can rebuild a journaled job
// byte-identically after a restart.
func BuildJob(req JobRequest) (Job, error) {
	ap, err := ParseApproach(req.Approach)
	if err != nil {
		return Job{}, err
	}
	method, err := flow.ParseMethod(req.Method)
	if err != nil {
		return Job{}, err
	}
	overhead := 1.0
	if req.C != nil {
		overhead = *req.C
	}
	lib := cell.Default(overhead)
	var (
		c      *netlist.Circuit
		scheme clocking.Scheme
	)
	switch {
	case req.Bench != "" && req.Verilog != "":
		return Job{}, fmt.Errorf("engine: %w: request has both bench and verilog", ErrBadRequest)
	case req.Bench != "":
		prof, ok := bench.ProfileByName(req.Bench)
		if !ok {
			return Job{}, fmt.Errorf("engine: %w: unknown benchmark %q", ErrBadRequest, req.Bench)
		}
		seq, err := prof.BuildSeq(lib)
		if err != nil {
			return Job{}, err
		}
		c, scheme, err = prof.CutAndCalibrate(seq)
		if err != nil {
			return Job{}, err
		}
	case req.Verilog != "":
		sc, err := verilog.ParseString(req.Verilog, lib)
		if err != nil {
			return Job{}, err
		}
		c, err = sc.Cut()
		if err != nil {
			return Job{}, err
		}
		scheme = bench.SchemeFor(c, sta.DefaultOptions(lib))
	default:
		return Job{}, fmt.Errorf("engine: %w: request needs bench or verilog", ErrBadRequest)
	}
	job := Job{
		Circuit:  c,
		Approach: ap,
		PostSwap: ap.IsVLib(),
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	job.Options.Scheme = scheme
	job.Options.EDLCost = overhead
	job.Options.Method = method
	job.Options.PivotLimit = req.PivotLimit
	if req.GateModel {
		job.Options.TimingModel = sta.ModelGate
	}
	return job, nil
}

// statusOf renders a queue job's state for the API, without a result.
func (s *Server) statusOf(j queue.Job) jobStatus {
	now := s.cfg.Durable.Queue().Now()
	js := jobStatus{
		ID: j.ID, Key: j.Key, Status: j.StatusAt(now),
		Attempts: j.Attempts, MaxAttempts: j.MaxAttempts, Error: j.LastError,
	}
	if j.State == queue.StateQueued && j.NextRetry.After(now) {
		js.NextRetryMS = float64(j.NextRetry.Sub(now).Microseconds()) / 1000
	}
	return js
}

// withResult attaches an outcome's summary and runtime to a status row.
func (js jobStatus) withResult(out *Outcome) jobStatus {
	sum := out.Summary()
	js.Result, js.RuntimeMS = &sum, float64(out.Runtime.Microseconds())/1000
	return js
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
