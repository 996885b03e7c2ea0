package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"relatch/internal/obs"
	"relatch/internal/queue"
)

// testStack is the full durable serving stack behind one test server.
type testStack struct {
	eng     *Engine
	q       *queue.Queue
	d       *Durable
	metrics *obs.Registry
	stream  *obs.Stream
}

// newTestStack assembles engine+queue+pump with test-friendly knobs.
// Mutate cfg/qcfg via the callbacks before the components start.
func newTestStack(t *testing.T, mutate func(*Config, *queue.Config, *DurableConfig)) *testStack {
	t.Helper()
	cfg := Config{Workers: 2, Cache: mustCache(t, 8, "")}
	qcfg := queue.Config{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	dcfg := DurableConfig{Poll: 2 * time.Millisecond, Sweep: 5 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg, &qcfg, &dcfg)
	}
	st := &testStack{metrics: obs.NewRegistry(), stream: obs.NewStream(256)}
	if qcfg.Metrics == nil {
		qcfg.Metrics = st.metrics
	}
	if qcfg.Events == nil {
		qcfg.Events = st.stream
	}
	if cfg.Metrics == nil {
		cfg.Metrics = st.metrics
	}
	st.eng = New(cfg)
	var err error
	if st.q, err = queue.Open(qcfg); err != nil {
		t.Fatal(err)
	}
	dcfg.Engine, dcfg.Queue, dcfg.Metrics = st.eng, st.q, st.metrics
	if st.d, err = NewDurable(dcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.d.Close()
		st.q.Close()
		st.eng.Close()
	})
	return st
}

func newTestServer(t *testing.T, mutate func(*Config, *queue.Config, *DurableConfig)) (*httptest.Server, *testStack) {
	t.Helper()
	st := newTestStack(t, mutate)
	srv, err := NewServer(ServerConfig{
		Durable:        st.d,
		Metrics:        st.metrics,
		RequestTimeout: 30 * time.Second,
		Stream:         st.stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (jobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js jobStatus
	json.NewDecoder(resp.Body).Decode(&js)
	return js, resp
}

func pollDone(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var js jobStatus
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if js.Status == "done" || js.Status == "dead" {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, js.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerSubmitPollComplete(t *testing.T) {
	ts, _ := newTestServer(t, nil)

	js, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %+v", resp.StatusCode, js)
	}
	if js.ID == "" || len(js.Key) != 64 {
		t.Fatalf("bad submit response: %+v", js)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("submit response missing X-Request-Id")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("202 missing the Retry-After poll hint")
	}

	done := pollDone(t, ts, js.ID)
	if done.Status != "done" || done.Error != "" {
		t.Fatalf("job ended %q (%s)", done.Status, done.Error)
	}
	if done.Result == nil || !done.Result.Certified {
		t.Fatalf("completed job not certified: %+v", done.Result)
	}
	if done.Result.Approach != "g-rar" || done.Result.Slaves <= 0 {
		t.Errorf("bad result row: %+v", done.Result)
	}
	if done.RuntimeMS <= 0 {
		t.Errorf("done job reports no runtime: %+v", done)
	}

	// The listing includes the finished job, as a status row: results
	// are resolved per job, never for a whole listing.
	hresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []jobStatus
	err = json.NewDecoder(hresp.Body).Decode(&all)
	hresp.Body.Close()
	if err != nil || len(all) != 1 || all[0].ID != js.ID || all[0].Status != "done" {
		t.Errorf("listing = %+v (%v)", all, err)
	}
	if len(all) == 1 && (all[0].Result != nil || all[0].RuntimeMS != 0) {
		t.Errorf("listing row carries a result: %+v", all[0])
	}

	// An identical resubmission is content-addressed to the same key and
	// completes out of the engine cache.
	again, aresp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if aresp.StatusCode != http.StatusAccepted || again.Key != js.Key {
		t.Fatalf("resubmission: code %d key %s, want key %s", aresp.StatusCode, again.Key, js.Key)
	}
	warm := pollDone(t, ts, again.ID)
	if warm.Result == nil || warm.Result.CacheLayer != "memory" {
		t.Errorf("resubmission missed the cache: %+v", warm.Result)
	}
}

func TestServerEchoesRequestID(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs", nil)
	req.Header.Set("X-Request-Id", "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "req-42" {
		t.Errorf("X-Request-Id = %q, want the incoming req-42", got)
	}
}

// TestServerReplacesUnsafeRequestIDs: an incoming X-Request-Id that is
// too long or holds a byte outside [A-Za-z0-9._:-] is replaced by a
// minted ID, on the response and in the journal alike.
func TestServerReplacesUnsafeRequestIDs(t *testing.T) {
	for _, id := range []string{"req-42", "req-cluster-7f3a", "relbench-cold-0001", "0123456789abcdef", strings.Repeat("x", 128)} {
		if !validRequestID(id) {
			t.Errorf("request ID %q rejected", id)
		}
	}

	dir := t.TempDir()
	ts, st := newTestServer(t, func(_ *Config, qcfg *queue.Config, _ *DurableConfig) { qcfg.Dir = dir })
	body, err := json.Marshal(JobRequest{Verilog: testSource, Approach: "grar"})
	if err != nil {
		t.Fatal(err)
	}
	unsafe := []string{strings.Repeat("a", 4096), "req 42"}
	for _, id := range unsafe {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var js jobStatus
		json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit returned %d: %+v", resp.StatusCode, js)
		}
		got := resp.Header.Get("X-Request-Id")
		if got == id || !validRequestID(got) {
			t.Errorf("X-Request-Id = %.40q, want a minted ID in place of %.40q", got, id)
		}
		j, ok := st.q.Get(js.ID)
		if !ok {
			t.Fatalf("job %s not in the queue", js.ID)
		}
		var env envelope
		if err := json.Unmarshal(j.Payload, &env); err != nil {
			t.Fatal(err)
		}
		if env.RequestID != got {
			t.Errorf("journaled request ID %.40q, want the minted %q", env.RequestID, got)
		}
	}
	// Replay the journal from disk: no payload carries a rejected ID.
	st.d.Close()
	st.q.Close()
	replayed, err := queue.Open(queue.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	jobs := replayed.Jobs()
	if len(jobs) != len(unsafe) {
		t.Fatalf("journal replays %d jobs, want %d", len(jobs), len(unsafe))
	}
	for _, j := range jobs {
		for _, id := range unsafe {
			if bytes.Contains(j.Payload, []byte(id)) {
				t.Errorf("journaled payload of %s holds the rejected request ID %.40q", j.ID, id)
			}
		}
	}
}

func TestServerShedsWith429WhenFull(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, _ := newTestServer(t, func(cfg *Config, qcfg *queue.Config, _ *DurableConfig) {
		cfg.Workers = 1
		cfg.SolveOverride = func(ctx context.Context, job Job) (*Outcome, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, fmt.Errorf("test solve aborted: %v", ctx.Err())
		}
		qcfg.Capacity = 2
	})

	codes := make(map[int]int)
	var retryAfter string
	for i := 0; i < 4; i++ {
		_, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar", TimeoutMS: int(time.Hour.Milliseconds()), PivotLimit: i + 1})
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests {
			retryAfter = resp.Header.Get("Retry-After")
		}
	}
	if codes[http.StatusAccepted] != 2 || codes[http.StatusTooManyRequests] != 2 {
		t.Fatalf("codes = %v, want two 202 and two 429", codes)
	}
	if retryAfter == "" {
		t.Error("429 missing Retry-After")
	}
}

func TestServerServesCacheOnlyWhenSaturated(t *testing.T) {
	// Warm a shared cache with a real solve, then saturate the server's
	// worker pool: the warm key must still be answered, synchronously
	// and straight from the cache.
	cache := mustCache(t, 8, "")
	warmEng := New(Config{Workers: 1, Cache: cache})
	req := JobRequest{Verilog: testSource, Approach: "grar"}
	job, err := BuildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmEng.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	warmEng.Close()

	block := make(chan struct{})
	defer close(block)
	ts, st := newTestServer(t, func(cfg *Config, qcfg *queue.Config, _ *DurableConfig) {
		cfg.Workers = 1
		cfg.Cache = cache
		cfg.SolveOverride = func(ctx context.Context, job Job) (*Outcome, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, fmt.Errorf("test solve aborted: %v", ctx.Err())
		}
	})

	// Saturate the single worker with a key that blocks forever. The
	// pivot limit keeps its key distinct from the warm one (timeout is
	// canonicalized out of the key).
	_, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar", TimeoutMS: int(time.Hour.Milliseconds()), PivotLimit: 7})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("saturating submit returned %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !st.d.Saturated() {
		if time.Now().After(deadline) {
			t.Fatal("worker pool never saturated")
		}
		time.Sleep(2 * time.Millisecond)
	}

	js, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit under saturation returned %d: %+v", resp.StatusCode, js)
	}
	if js.Status != "done" || js.Result == nil || !js.Result.CacheHit {
		t.Fatalf("degraded-mode response not a cache hit: %+v", js)
	}
}

func TestServerDeadLetterInspectable(t *testing.T) {
	ts, _ := newTestServer(t, func(cfg *Config, qcfg *queue.Config, _ *DurableConfig) {
		cfg.SolveOverride = func(ctx context.Context, job Job) (*Outcome, error) {
			return nil, fmt.Errorf("solver permanently broken")
		}
		qcfg.MaxAttempts = 2
	})
	js, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	dead := pollDone(t, ts, js.ID)
	if dead.Status != "dead" || dead.Attempts != 2 || !strings.Contains(dead.Error, "permanently broken") {
		t.Fatalf("dead job = %+v", dead)
	}

	hresp, err := http.Get(ts.URL + "/jobs?state=dead")
	if err != nil {
		t.Fatal(err)
	}
	var deads []jobStatus
	err = json.NewDecoder(hresp.Body).Decode(&deads)
	hresp.Body.Close()
	if err != nil || len(deads) != 1 || deads[0].ID != js.ID {
		t.Errorf("dead listing = %+v (%v)", deads, err)
	}
	hresp, err = http.Get(ts.URL + "/jobs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	deads = nil
	json.NewDecoder(hresp.Body).Decode(&deads)
	hresp.Body.Close()
	if len(deads) != 0 {
		t.Errorf("state=done listing includes the dead job: %+v", deads)
	}
}

func TestServerReportsRetryDetail(t *testing.T) {
	fail := make(chan struct{}, 1)
	fail <- struct{}{}
	ts, _ := newTestServer(t, func(cfg *Config, qcfg *queue.Config, _ *DurableConfig) {
		cfg.SolveOverride = func(ctx context.Context, job Job) (*Outcome, error) {
			select {
			case <-fail:
				return nil, fmt.Errorf("transient solver hiccup")
			default:
				<-ctx.Done() // park until shutdown; the poller reads the retry state meanwhile
				return nil, fmt.Errorf("test solve aborted: %v", ctx.Err())
			}
		}
		qcfg.BaseBackoff = time.Minute
		qcfg.MaxBackoff = time.Minute
	})
	js, _ := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + js.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got jobStatus
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got.Status == "retrying" {
			if got.Attempts != 1 || !strings.Contains(got.Error, "hiccup") || got.NextRetryMS <= 0 {
				t.Fatalf("retrying status = %+v", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached retrying state: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerReadyzFlipsUnderSustainedOverload(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, _ := newTestServer(t, func(cfg *Config, qcfg *queue.Config, dcfg *DurableConfig) {
		cfg.Workers = 1
		cfg.SolveOverride = func(ctx context.Context, job Job) (*Outcome, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, fmt.Errorf("test solve aborted: %v", ctx.Err())
		}
		qcfg.Capacity = 4
		dcfg.OverloadHighWater = 0.5
		dcfg.OverloadGrace = 20 * time.Millisecond
		dcfg.Sweep = 5 * time.Millisecond
	})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("fresh server readyz = %d", code)
	}
	// Fill past the high-water mark (2 of 4) with distinct blocking keys.
	for i := 0; i < 3; i++ {
		if _, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar", TimeoutMS: int(time.Hour.Milliseconds()), PivotLimit: i + 1}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d returned %d", i, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for get("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped unready under sustained overload")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Liveness is unaffected by overload.
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d during overload", code)
	}
}

func TestServerMetrics(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	js, _ := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "base"})
	pollDone(t, ts, js.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics Content-Type = %q, want Prometheus 0.0.4 exposition", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, line := range []string{
		"relatch_engine_submitted_total 1",
		`relatch_engine_jobs_total{outcome="completed"} 1`,
		`relatch_engine_cache_total{event="miss"} 1`,
		`relatch_queue_jobs_total{event="enqueued"} 1`,
		`relatch_queue_jobs_total{event="completed"} 1`,
		"relatch_queue_depth 0",
		"# TYPE relatch_job_stage_seconds histogram",
		`relatch_job_stage_seconds_count{stage="solve"} 1`,
		`relatch_job_stage_seconds_count{stage="certify"} 1`,
		`relatch_job_stage_seconds_count{stage="total"} 1`,
		`relatch_job_stage_seconds_count{stage="queue_wait"} 1`,
		"relatch_queue_lease_hold_seconds_count 1",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q:\n%s", line, text)
		}
	}
	// Parser roundtrip: every emitted line must be valid Prometheus text
	// exposition — names, label escaping, float values, no NaN.
	if err := obs.ValidateMetrics(strings.NewReader(text)); err != nil {
		t.Errorf("metrics page does not scrape cleanly: %v", err)
	}
}

// TestServerMetricsGaugesAtScrapeTime pins the point-in-time gauges to
// one writer: with 2 queued, 1 leased and 1 done job, each gauge renders
// exactly once, at the value Stats reports.
func TestServerMetricsGaugesAtScrapeTime(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, st := newTestServer(t, func(cfg *Config, _ *queue.Config, _ *DurableConfig) {
		cfg.Workers = 1
		cfg.SolveOverride = func(ctx context.Context, job Job) (*Outcome, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, fmt.Errorf("test solve aborted: %v", ctx.Err())
		}
	})
	// The pump's only lease loop takes the first job and blocks in it.
	postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar", PivotLimit: 1})
	deadline := time.Now().Add(10 * time.Second)
	for st.q.Stats().Leased != 1 || st.eng.WorkersBusy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never leased")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// With the pump busy, settle one job by hand, then queue two more.
	if _, err := st.q.Enqueue("k-done", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	j, ok, err := st.q.Lease()
	if err != nil || !ok {
		t.Fatalf("lease: %v, %v", ok, err)
	}
	if err := st.q.Complete(j.ID, j.Lease, nil); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if _, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar", PivotLimit: i}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d returned %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	if err := obs.ValidateMetrics(strings.NewReader(text)); err != nil {
		t.Errorf("metrics page does not scrape cleanly: %v", err)
	}
	qs := st.q.Stats()
	for _, g := range []struct {
		name      string
		got, want int
	}{
		{"relatch_queue_depth", qs.Depth, 3},
		{"relatch_queue_leased", qs.Leased, 1},
		{"relatch_queue_retrying", qs.Retrying, 0},
		{"relatch_queue_done", qs.Done, 1},
		{"relatch_queue_dead", qs.Dead, 0},
		{"relatch_engine_workers", st.eng.Workers(), 1},
		{"relatch_engine_workers_busy", st.eng.WorkersBusy(), 1},
		{"relatch_cache_entries", st.eng.Cache().Len(), 0},
	} {
		if g.got != g.want {
			t.Errorf("Stats: %s = %d, want %d", g.name, g.got, g.want)
		}
		var lines []string
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, g.name+" ") {
				lines = append(lines, l)
			}
		}
		if want := fmt.Sprintf("%s %d", g.name, g.got); len(lines) != 1 || lines[0] != want {
			t.Errorf("metrics render %s as %q, want exactly [%q]", g.name, lines, want)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{torn"},
		{"unknown field", `{"approach":"grar","verilog":"x","frob":1}`},
		{"unknown approach", fmt.Sprintf(`{"approach":"warp","verilog":%q}`, testSource)},
		{"no circuit", `{"approach":"grar"}`},
		{"both circuits", fmt.Sprintf(`{"approach":"grar","verilog":%q,"bench":"s1196"}`, testSource)},
		{"unknown bench", `{"approach":"grar","bench":"s0"}`},
		{"bad verilog", `{"approach":"grar","verilog":"module m(; endmodule"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/jobs/q-99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	st := newTestStack(t, nil)
	srv, err := NewServer(ServerConfig{Durable: st.d})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung")
	}
}

// TestServerServeGoroutineJoins is the regression test for the buffered
// errc in ListenAndServe (relint chandisc bug class): when ctx wins the
// shutdown select, the internal Serve goroutine must still be able to
// deliver its error and exit. An unbuffered errc would strand one Serve
// goroutine per ListenAndServe cycle; repeated cycles would grow the
// goroutine count without bound.
func TestServerServeGoroutineJoins(t *testing.T) {
	st := newTestStack(t, nil)
	srv, err := NewServer(ServerConfig{Durable: st.d})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe(ctx, "127.0.0.1:0") }()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("cycle %d: shutdown returned %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cycle %d: shutdown hung", i)
		}
	}
	// Each cycle's goroutines (ListenAndServe wrapper + Serve) must have
	// exited; poll briefly since exits are asynchronous. Allow slack of 2
	// for unrelated runtime/netpoll goroutines that may have started.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across serve cycles: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerRequiresDurable(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("server constructed without a durable layer")
	}
}
