package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"relatch/internal/cluster"
	"relatch/internal/obs"
	"relatch/internal/queue"
)

// clusterNode is one member of an in-process test cluster.
type clusterNode struct {
	id   string
	url  string
	ts   *httptest.Server
	st   *testStack
	node *cluster.Node
}

// threeNodes builds a 3-node in-process cluster, each node a full
// serving stack (engine, queue, durable pump, HTTP frontend) with a
// disk cache and the peer tier wired. Listeners are bound before any
// node is constructed so every member knows the full membership URLs
// up front — the same order of operations a static -peers deployment
// has.
func threeNodes(t *testing.T, mutate func(i int, scfg *ServerConfig)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, 3)
	specs := make([]cluster.PeerSpec, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		specs[i] = cluster.PeerSpec{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		st := newTestStack(t, func(cfg *Config, _ *queue.Config, _ *DurableConfig) {
			cfg.Cache = mustCache(t, 8, t.TempDir())
		})
		cn, err := cluster.New(cluster.Config{
			Self:             specs[i].ID,
			Peers:            specs,
			Replicas:         2,
			Timeout:          5 * time.Second,
			BreakerThreshold: 1,
			Metrics:          st.metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.eng.Cache().SetPeer(cn.FetchEntry)
		scfg := ServerConfig{
			Durable:        st.d,
			Tracer:         st.tr,
			Metrics:        st.metrics,
			RequestTimeout: 30 * time.Second,
			Stream:         st.stream,
			Cluster:        cn,
		}
		if mutate != nil {
			mutate(i, &scfg)
		}
		srv, err := NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{id: specs[i].ID, url: specs[i].URL, ts: ts, st: st, node: cn}
	}
	return nodes
}

// byID indexes the node list by member ID.
func byID(nodes []*clusterNode, id string) *clusterNode {
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// jobAndKey builds the request's job and content address.
func jobAndKey(t *testing.T, req JobRequest) (Job, Key) {
	t.Helper()
	job, err := BuildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	return job, key
}

// traceText renders a node's full trace outline.
func traceText(n *clusterNode) string {
	var buf bytes.Buffer
	n.st.tr.Report().WriteText(&buf)
	return buf.String()
}

// TestClusterForwardsToOwnerWithRequestID proves the sharding contract
// and satellite 1: a submission to a non-owner is forwarded to the
// owner shard, completes there, and the client's X-Request-Id appears
// on both nodes' traces — the forward leg on the sender, the job span
// on the owner.
func TestClusterForwardsToOwnerWithRequestID(t *testing.T) {
	nodes := threeNodes(t, nil)
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	_, key := jobAndKey(t, req)

	owner := nodes[0].node.Owners(key.String())[0]
	var sender *clusterNode
	for _, n := range nodes {
		if n.id != owner {
			sender = n
			break
		}
	}
	const reqID = "req-cluster-7f3a"
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, sender.ts.URL+"/jobs", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var js jobStatus
	json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit returned %d: %+v", resp.StatusCode, js)
	}
	if got := resp.Header.Get("X-Cluster-Node"); got != owner {
		t.Fatalf("X-Cluster-Node = %q, want owner %q", got, owner)
	}

	// Polling the accepting node is proxied to the owner.
	done := pollDone(t, sender.ts, js.ID)
	if done.Status != "done" || done.Result == nil || !done.Result.Certified {
		t.Fatalf("forwarded job ended %+v", done)
	}
	// The owner's queue holds the job; the sender's does not.
	if _, ok := byID(nodes, owner).st.q.Get(js.ID); !ok {
		t.Fatalf("owner %s has no record of job %s", owner, js.ID)
	}
	if _, ok := sender.st.q.Get(js.ID); ok {
		t.Fatalf("sender %s ran job %s locally despite forwarding", sender.id, js.ID)
	}

	// Satellite 1: the same request ID on both traces.
	if txt := traceText(sender); !strings.Contains(txt, reqID) || !strings.Contains(txt, "cluster.forward") {
		t.Errorf("sender trace missing the forward span with %s:\n%s", reqID, txt)
	}
	if txt := traceText(byID(nodes, owner)); !strings.Contains(txt, reqID) {
		t.Errorf("owner trace missing request ID %s:\n%s", reqID, txt)
	}

	if got := sender.st.metrics.Counter(obs.Label(obs.MetricClusterForward, "outcome", "ok")); got != 1 {
		t.Errorf("forward ok counter = %d, want 1", got)
	}
}

// TestClusterPeerCacheHit proves the warm path: once the owner holds a
// certified disk entry, another node's miss is served through the peer
// tier — fetched, revalidated locally and reported as cache layer
// "peer".
func TestClusterPeerCacheHit(t *testing.T) {
	nodes := threeNodes(t, nil)
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	job, key := jobAndKey(t, req)

	owner := byID(nodes, nodes[0].node.Owners(key.String())[0])
	if _, err := owner.st.eng.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(owner.st.eng.Cache().EntryPath(key)); err != nil {
		t.Fatalf("owner has no disk entry after solving: %v", err)
	}

	var other *clusterNode
	for _, n := range nodes {
		if n.id != owner.id {
			other = n
			break
		}
	}
	out, err := other.st.eng.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || out.CacheLayer != "peer" {
		t.Fatalf("outcome hit=%v layer=%q, want a peer-tier hit", out.CacheHit, out.CacheLayer)
	}
	if err := out.Core.Certificate.Err(); err != nil {
		t.Fatalf("peer-restored outcome not certified: %v", err)
	}
	st := other.st.eng.Stats().Cache
	if st.PeerHits != 1 || st.PeerRejected != 0 {
		t.Fatalf("cache stats = %+v, want one peer hit", st)
	}
	if got := other.st.metrics.Counter(obs.Label(obs.MetricClusterPeerFetch, "outcome", "hit")); got != 1 {
		t.Errorf("peer fetch hit counter = %d, want 1", got)
	}
	// The validated blob was persisted: a restart would serve it from disk.
	if _, err := os.Stat(other.st.eng.Cache().EntryPath(key)); err != nil {
		t.Errorf("peer hit was not persisted locally: %v", err)
	}
}

// TestClusterRejectsPoisonedPeer is the trust invariant: a peer serving
// a tampered claim blob is caught by revalidation, the rejection is
// counted, and the job is recomputed locally — an uncertified result is
// never served.
func TestClusterRejectsPoisonedPeer(t *testing.T) {
	nodes := threeNodes(t, nil)
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	job, key := jobAndKey(t, req)

	owner := byID(nodes, nodes[0].node.Owners(key.String())[0])
	if _, err := owner.st.eng.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	// Poison the owner's entry: inflate the claimed sequential area. The
	// blob stays well-formed JSON with the right key and schema — only
	// revalidation against re-derived ground truth can catch it.
	path := owner.st.eng.Cache().EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	area, _ := e["seq_area"].(float64)
	e["seq_area"] = area + 1
	tampered, _ := json.Marshal(e)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	var other *clusterNode
	for _, n := range nodes {
		if n.id != owner.id {
			other = n
			break
		}
	}
	out, err := other.st.eng.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatalf("tampered peer entry was served as a cache hit (layer %q)", out.CacheLayer)
	}
	if err := out.Core.Certificate.Err(); err != nil {
		t.Fatalf("locally recomputed outcome not certified: %v", err)
	}
	st := other.st.eng.Stats().Cache
	if st.PeerRejected != 1 {
		t.Fatalf("cache stats = %+v, want exactly one peer rejection", st)
	}
	if st.PeerHits != 0 {
		t.Fatalf("tampered blob counted as a peer hit: %+v", st)
	}
	// The revalidation failure is visible on the public metrics page.
	resp, err := http.Get(other.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), `relatch_engine_cache_total{event="peer_rejected"} 1`) {
		t.Errorf("metrics page missing the peer_rejected counter:\n%s", buf.String())
	}
	// The local recompute stored its own honest entry; the poisoned blob
	// itself must not have been adopted.
	local, err := os.ReadFile(other.st.eng.Cache().EntryPath(key))
	if err != nil {
		t.Fatalf("recomputed entry not persisted: %v", err)
	}
	if bytes.Equal(local, tampered) {
		t.Error("poisoned peer blob was persisted verbatim on the fetching node")
	}
	var stored map[string]any
	if err := json.Unmarshal(local, &stored); err != nil {
		t.Fatal(err)
	}
	if got, _ := stored["seq_area"].(float64); got != area {
		t.Errorf("stored entry claims seq_area %v, want the honest %v", got, area)
	}
}

// TestClusterRebalancesOnPeerDeath kills a node and proves the ring
// rebalance: keys it owned route to the next live owner (or local
// compute), submissions keep succeeding on every surviving node, and
// the fallback is visible in the forward metrics.
func TestClusterRebalancesOnPeerDeath(t *testing.T) {
	nodes := threeNodes(t, nil)
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	_, key := jobAndKey(t, req)

	owner := nodes[0].node.Owners(key.String())[0]
	dead := byID(nodes, owner)
	dead.ts.Close()

	var sender *clusterNode
	for _, n := range nodes {
		if n.id != owner {
			sender = n
			break
		}
	}
	js, resp := postJob(t, sender.ts, req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit with dead owner returned %d: %+v", resp.StatusCode, js)
	}
	done := pollDone(t, sender.ts, js.ID)
	if done.Status != "done" || done.Result == nil || !done.Result.Certified {
		t.Fatalf("job with dead owner ended %+v", done)
	}

	// Depending on the replica order the job either ran locally
	// (fallback after the dead owner refused the connection, or the
	// sender was the second owner) or was forwarded to the surviving
	// replica. Either way nothing failed, and the dead peer's breaker
	// opened on the sender if it was dialled.
	fellBack := sender.st.metrics.Counter(obs.Label(obs.MetricClusterForward, "outcome", "fallback_local"))
	forwarded := sender.st.metrics.Counter(obs.Label(obs.MetricClusterForward, "outcome", "ok"))
	if fellBack == 0 && forwarded == 0 {
		// Sender itself was the next owner — the route was local.
		if _, ok := sender.st.q.Get(js.ID); !ok {
			t.Fatalf("no forward, no fallback, and no local record of %s", js.ID)
		}
	}

	// Every subsequent submission on every surviving node still works:
	// degrade, never fail.
	for _, n := range nodes {
		if n.id == owner {
			continue
		}
		js, resp := postJob(t, n.ts, JobRequest{Verilog: testSource, Approach: "base"})
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("node %s refused a submission after peer death: %d", n.id, resp.StatusCode)
		}
		if done := pollDone(t, n.ts, js.ID); done.Status != "done" {
			t.Fatalf("node %s job ended %q after peer death", n.id, done.Status)
		}
	}
}

// TestClusterAuthPaths covers satellite 3's policy checks on a
// clustered node: no token → 401 with WWW-Authenticate, bad token →
// 401, valid token → 202, token over its rate → 429 with Retry-After,
// and the decisions land in the auth metrics.
func TestClusterAuthPaths(t *testing.T) {
	var auth *cluster.Auth
	nodes := threeNodes(t, func(i int, scfg *ServerConfig) {
		a, err := cluster.NewAuth([]cluster.Policy{
			{Name: "ci", Token: "tok-ci", Rate: 1000, Burst: 1000},
			{Name: "tiny", Token: "tok-tiny", Rate: 0.001, Burst: 1},
		}, scfg.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Auth = a
		if i == 0 {
			auth = a
		}
	})
	n := nodes[0]
	body := fmt.Sprintf(`{"approach":"grar","verilog":%q}`, testSource)

	do := func(authz string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, n.ts.URL+"/jobs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if authz != "" {
			req.Header.Set("Authorization", authz)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := do(""); resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("no token: %d (WWW-Authenticate %q)", resp.StatusCode, resp.Header.Get("WWW-Authenticate"))
	}
	if resp := do("Bearer tok-wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: %d, want 401", resp.StatusCode)
	}
	if resp := do("Bearer tok-ci"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid token: %d, want 202", resp.StatusCode)
	}
	// The auth-scheme is case-insensitive (RFC 7235 §2.1).
	if resp := do("bearer tok-ci"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid token, lower-case scheme: %d, want 202", resp.StatusCode)
	}
	// Exhaust the tiny client's single-token burst.
	if resp := do("Bearer tok-tiny"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tiny first request: %d, want 202", resp.StatusCode)
	}
	if resp := do("Bearer tok-tiny"); resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("tiny second request: %d (Retry-After %q), want 429", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Probes and scrapes stay open.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(n.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnauthorized {
			t.Errorf("%s gated behind auth", path)
		}
	}

	if got := n.st.metrics.Counter(obs.Label(obs.MetricClusterAuth, "result", "unauthorized")); got != 2 {
		t.Errorf("unauthorized counter = %d, want 2", got)
	}
	if got := n.st.metrics.Counter(obs.Label(obs.MetricClusterAuth, "result", "rate_limited")); got != 1 {
		t.Errorf("rate_limited counter = %d, want 1", got)
	}
	if used := auth.Used("ci"); used != 2 {
		t.Errorf("Used(ci) = %d, want 2", used)
	}
}

// TestClusterCacheEntryRoute exercises the peer protocol surface
// directly: a malformed key is a 400, a missing entry a 404, and a
// present entry round-trips byte-identically.
func TestClusterCacheEntryRoute(t *testing.T) {
	nodes := threeNodes(t, nil)
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	job, key := jobAndKey(t, req)
	n := nodes[0]

	get := func(k string) (*http.Response, []byte) {
		resp, err := http.Get(n.ts.URL + "/internal/v1/cache/" + k)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}
	if resp, _ := get("not-hex"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(key.String()); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent entry: %d, want 404", resp.StatusCode)
	}
	if _, err := n.st.eng.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(n.st.eng.Cache().EntryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	resp, got := get(key.String())
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("present entry: %d, %d bytes (want %d)", resp.StatusCode, len(got), len(want))
	}
}
