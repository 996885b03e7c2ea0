package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"relatch/internal/engine"
	"relatch/internal/obs"
)

// The serve-restart traffic: small circuits only, so solve plus
// certify is a few milliseconds and the time goes to HTTP, BuildJob,
// key hashing, the journal, the pump's idle poll, cache restore and
// status reads.
var (
	serveBenches    = []string{"s1196", "s1238", "s1423", "s1488"}
	serveApproaches = []string{"grar", "base", "nvl", "evl", "rvl"}
)

const (
	// serveGridSteps c values per (bench, approach): c = 0.5 + i/16,
	// exact in binary, 500 keys in all — enough that cold keys never
	// repeat within an 80-second run.
	serveGridSteps = 25
	// The open loop: one submit every submitInterval on the submit
	// connection (at most one submit in flight), one read every
	// readInterval on the read connection.
	submitInterval = 100 * time.Millisecond
	readInterval   = 250 * time.Millisecond
	readOffset     = 50 * time.Millisecond
	// Every block of submitBlock submit slots holds coldPerBlock cold
	// submits (keys this server never solved) and re-submits of
	// pre-warmed keys for the rest, in seeded order. The even split and
	// the read rate are assumed, not taken from recorded traffic
	// (README.md, "Traffic mix").
	submitBlock  = 10
	coldPerBlock = 5
	// Every prewarmStride-th c value of each (bench, approach) pair is
	// pre-warmed by the set-up burst before the restart: the same 100
	// keys whatever the seed, so the burst is the same work every run.
	prewarmStride = 5
	// serveSetupReps is how many times a run launches, pre-warms and
	// restarts a server; setup_s is the median over them, pass_s the
	// fastest pre-warm burst.
	serveSetupReps = 5
	opTimeout      = 30 * time.Second
	readyTimeout   = 30 * time.Second
	stopTimeout    = 30 * time.Second
)

// serveGrid lists every spec the serve workload can draw, grouped by
// (bench, approach) pair.
func serveGrid() []spec {
	var out []spec
	for _, b := range serveBenches {
		for _, a := range serveApproaches {
			for i := 0; i < serveGridSteps; i++ {
				out = append(out, spec{b, a, 0.5 + float64(i)/16})
			}
		}
	}
	return out
}

// serveOp is one scheduled operation of the timed phase.
type serveOp struct {
	kind string        // "cold", "warm" or "read"
	spec spec          // submits: the job; reads: the pre-warmed job read back
	job  int           // reads: index of the pre-warm job
	due  time.Duration // offset from the start of the timed phase
}

// servePlan derives the pre-warm set and both lanes' schedules from the
// seed. The seed picks orders and the cold keys' c values; the mix is
// fixed: the pre-warm set is the same every run, every 20 consecutive
// cold submits cover each (bench, approach) pair once, and warm
// submits and reads cycle through the pre-warm set, so seeds change
// which keys run but not how much work they are.
func servePlan(rng *rand.Rand, seconds int) (prewarm []spec, submits, reads []serveOp, err error) {
	grid := serveGrid()
	pairs := len(grid) / serveGridSteps
	coldByPair := make([][]spec, pairs)
	for p := range coldByPair {
		for i, s := range grid[p*serveGridSteps : (p+1)*serveGridSteps] {
			if i%prewarmStride == 0 {
				prewarm = append(prewarm, s)
			} else {
				coldByPair[p] = append(coldByPair[p], s)
			}
		}
		cs := coldByPair[p]
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	}
	rng.Shuffle(len(prewarm), func(i, j int) { prewarm[i], prewarm[j] = prewarm[j], prewarm[i] })
	var cold []spec
	for r := range coldByPair[0] {
		for _, p := range rng.Perm(pairs) {
			cold = append(cold, coldByPair[p][r])
		}
	}
	var warmOrder, readOrder []int
	next := func(order *[]int) int {
		if len(*order) == 0 {
			*order = rng.Perm(len(prewarm))
		}
		i := (*order)[0]
		*order = (*order)[1:]
		return i
	}

	budget := time.Duration(seconds) * time.Second
	var kinds []string
	for due := time.Duration(0); due < budget; due += submitInterval {
		if len(kinds) == 0 {
			for i := 0; i < submitBlock; i++ {
				kind := "warm"
				if i < coldPerBlock {
					kind = "cold"
				}
				kinds = append(kinds, kind)
			}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		op := serveOp{kind: kinds[0], due: due}
		kinds = kinds[1:]
		if op.kind == "cold" {
			if len(cold) == 0 {
				return nil, nil, nil, fmt.Errorf("serve grid exhausted: %d seconds need more than %d cold keys", seconds, len(grid)-len(prewarm))
			}
			op.spec, cold = cold[0], cold[1:]
		} else {
			op.spec = prewarm[next(&warmOrder)]
		}
		submits = append(submits, op)
	}
	for due := readOffset; due < budget; due += readInterval {
		j := next(&readOrder)
		reads = append(reads, serveOp{kind: "read", spec: prewarm[j], job: j, due: due})
	}
	return prewarm, submits, reads, nil
}

// runServe is the serve-restart workload: launch `rar -serve`, pre-warm
// it with a burst, restart it with SIGINT on the same directories, then
// drive an open loop of cold submits, warm submits and reads of
// pre-restart jobs.
func runServe(ctx context.Context, o options, ref *reference, rng *rand.Rand) (*report, error) {
	prewarm, submits, reads, err := servePlan(rng, o.seconds)
	if err != nil {
		return nil, err
	}
	var planned []spec
	for _, op := range submits {
		planned = append(planned, op.spec)
	}
	if err := ref.covers(append(planned, prewarm...)); err != nil {
		return nil, err
	}
	if _, err := os.Stat(o.rarPath()); err != nil {
		return nil, fmt.Errorf("rar binary: %w", err)
	}
	runDir, err := filepath.Abs(filepath.Join(o.buildDir(), fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(runDir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	// The run directory (journals, caches, server log) is kept only
	// when the run fails, for inspection.
	clean := false
	defer func() {
		if clean {
			os.RemoveAll(runDir)
		}
	}()

	rep := newReport()
	var tr *obs.Tracer
	if o.trace {
		tr = obs.New("relbench." + o.workload)
		defer func() { tr.Finish(); writeTrace(o, tr, rep) }()
	}
	tctx := obs.WithTracer(ctx, tr)

	// Set-up, repeated on fresh directories: launch, pre-warm burst,
	// SIGINT, relaunch, /readyz. The last repetition's server stays up.
	setupClient := newClient()
	var setups, bursts, recovers []float64
	var srv *server
	var ids []string
	var qdir, cdir string
	for i := 0; i < serveSetupReps; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		qdir, cdir = filepath.Join(dir, "queue"), filepath.Join(dir, "cache")
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		first, err := startServer(o.rarPath(), addr, qdir, cdir, logFile)
		if err != nil {
			return nil, err
		}
		if err := first.waitReady(ctx, setupClient); err != nil {
			first.stop()
			return nil, err
		}
		b0 := time.Now()
		ids, err = prewarmBurst(ctx, setupClient, first.base, prewarm, ref)
		burst := time.Since(b0)
		if stopErr := first.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		r0 := time.Now()
		srv, err = startServer(o.rarPath(), addr, qdir, cdir, logFile)
		if err != nil {
			return nil, err
		}
		if err := srv.waitReady(ctx, setupClient); err != nil {
			srv.stop()
			return nil, err
		}
		recovers = append(recovers, time.Since(r0).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
		bursts = append(bursts, burst.Seconds())
		if i < serveSetupReps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}
	defer srv.stop()
	setupClient.CloseIdleConnections()
	rep.set("setup_s", median(setups))
	// The burst is bound by the journal's fsyncs, whose latency spikes
	// for seconds at a time on a shared disk; the fastest burst of the
	// run is the steadier estimate of what the server can do.
	rep.set("pass_s", slices.Min(bursts))
	rep.set("queue.recover_s", median(recovers))

	var before map[string]float64
	if o.trace {
		if before, err = scrape(ctx, srv.base); err != nil {
			return nil, err
		}
	}

	// Timed phase: two lanes, one connection each.
	lanes, inflight := timedPhase(tctx, srv.base, submits, reads, ids, ref)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var subLat, readLat, subDur []float64
	var lateMax time.Duration
	for _, l := range lanes {
		for i, r := range l.results {
			rep.attempt(r.err)
			if r.late > lateMax {
				lateMax = r.late
			}
			if r.err != nil {
				continue
			}
			if l.ops[i].kind == "read" {
				readLat = append(readLat, ms(r.latency))
				continue
			}
			subLat = append(subLat, ms(r.latency))
			subDur = append(subDur, ms(r.dur))
		}
	}
	// Submits and reads together: the geometric mean weighs a 1 ms read
	// against a 25 ms submit as it weighs s5378 against Plasma, so a
	// change that speeds one path at the other's cost moves it.
	rep.set("job_geomean_ms", geomean(append(slices.Clone(subLat), readLat...)))
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)
	rep.set("serve.submits", float64(len(subLat)))
	rep.set("serve.reads", float64(len(readLat)))
	rep.set("loadgen.late_ms_max", ms(lateMax))
	rep.set("loadgen.max_inflight", float64(inflight))
	for _, p := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"serve.latency_p50_ms", subLat, 0.5},
		{"serve.latency_p90_ms", subLat, 0.9},
		{"serve.read_p50_ms", readLat, 0.5},
	} {
		if v, ok := percentile(p.samples, p.q); ok {
			rep.set(p.name, v)
			rep.note("%s = %.3f ms (n=%d)", p.name, v, len(p.samples))
		} else {
			rep.note("%s omitted: n=%d leaves fewer than %d samples beyond it", p.name, len(p.samples), minTail)
		}
	}
	rep.note("set-ups: setup_s %v s, burst %v s", setups, bursts)
	rep.note("timed phase: %d submits (%d due), %d reads (%d due)", len(subLat), len(submits), len(readLat), len(reads))
	rep.note("generator: late_ms_max=%.3f max_inflight=%d", ms(lateMax), inflight)
	if lateMax > submitInterval {
		rep.note("FLAGGED: the generator fell %.1f ms behind its schedule, more than one submit interval (%v): "+
			"holding the rate would have needed a second submit connection", ms(lateMax), submitInterval)
	}

	if o.trace {
		after, err := scrape(ctx, srv.base)
		if err != nil {
			return nil, err
		}
		serveLayers(rep, tr, before, after, mean(subDur))
		if err := inProcessBuild(tctx, rep, tr, planned); err != nil {
			return nil, err
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if o.trace {
		rep.set("queue.dir_mb", dirMB(qdir))
		rep.set("cache.dir_mb", dirMB(cdir))
	}
	clean = true
	return rep, nil
}

// serveLayers derives the serve per-layer metrics: client span means
// and /metrics deltas over the timed phase.
func serveLayers(rep *report, tr *obs.Tracer, before, after map[string]float64, submitMS float64) {
	for _, span := range []string{"http.submit", "http.events_wait", "http.result"} {
		rep.set(span+"_ms", spanMeanMS(tr, span))
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	perCount := func(sum, count string) float64 {
		if n := delta(count); n > 0 {
			return delta(sum) / n * 1000
		}
		return 0
	}
	for _, st := range []string{"queue_wait", "solve", "certify", "total"} {
		rep.set("engine."+st+"_ms", perCount(
			`relatch_job_stage_seconds_sum{stage="`+st+`"}`,
			`relatch_job_stage_seconds_count{stage="`+st+`"}`))
	}
	rep.set("queue.lease_hold_ms", perCount("relatch_queue_lease_hold_seconds_sum", "relatch_queue_lease_hold_seconds_count"))
	rep.set("engine.cache_ms", perCount(`relatch_span_duration_seconds{span="engine.cache"}`, `relatch_span_total{span="engine.cache"}`))
	rep.set("serve.outside_engine_ms", submitMS-rep.values["engine.total_ms"])
	cache := func(ev string) float64 { return delta(`relatch_engine_cache_total{event="` + ev + `"}`) }
	hits := cache("hit") + cache("disk_hit") + cache("peer_hit")
	if lookups := hits + cache("miss"); lookups > 0 {
		rep.set("engine.cache_hit_ratio", hits/lookups)
	}
	rep.set("engine.cache_disk_hits", cache("disk_hit"))
	for metric, series := range map[string]string{
		"flow.pivots":            `relatch_counter_total{span="flow.simplex",counter="pivots"}`,
		"flow.degenerate_pivots": `relatch_counter_total{span="flow.simplex",counter="degenerate_pivots"}`,
		"flow.fallbacks":         `relatch_counter_total{span="flow.solve",counter="fallbacks"}`,
		"vlib.attempts":          `relatch_counter_total{span="vlib.retime",counter="attempts"}`,
		"vlib.relaxed":           `relatch_counter_total{span="vlib.retime",counter="relaxed"}`,
	} {
		rep.set(metric, delta(series))
	}
	var spans float64
	for series, v := range after {
		if strings.HasPrefix(series, "relatch_span_total{") {
			spans += v
		}
	}
	rep.set("obs.spans_retained", spans)
}

// inProcessBuild times engine.BuildJob and Job.Key on the run's submit
// specs, in this process after the timed phase: the server runs both
// on every submit, and these spans isolate their cost.
func inProcessBuild(ctx context.Context, rep *report, tr *obs.Tracer, specs []spec) error {
	for _, s := range specs {
		job, err := buildJob(ctx, s)
		if err != nil {
			return err
		}
		if _, err := hashJob(ctx, job); err != nil {
			return fmt.Errorf("hashing %s: %w", s, err)
		}
	}
	rep.set("bench.build_ms", spanMeanMS(tr, "bench.build"))
	rep.set("engine.key_ms", spanMeanMS(tr, "bench.key"))
	return nil
}

// opResult is one timed operation's outcome.
type opResult struct {
	latency time.Duration // due → result read and verified
	late    time.Duration // due → sent
	dur     time.Duration // sent → result read
	err     error
}

type laneRun struct {
	ops     []serveOp
	results []opResult
}

// timedPhase runs the submit and read lanes concurrently against the
// same schedule origin and returns both lanes' results and the most
// operations that were in flight at once.
func timedPhase(ctx context.Context, base string, submits, reads []serveOp, ids []string, ref *reference) ([]*laneRun, int) {
	t0 := time.Now().Add(20 * time.Millisecond)
	var inflight, peak atomic.Int64
	lanes := []*laneRun{{ops: submits}, {ops: reads}}
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *laneRun) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			l.results = make([]opResult, len(l.ops))
			for i, op := range l.ops {
				due := t0.Add(op.due)
				if !sleepUntil(ctx, due) {
					return
				}
				start := time.Now()
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				reqID := fmt.Sprintf("relbench-%s-%04d", op.kind, i)
				var err error
				if op.kind == "read" {
					err = readOp(octx, c, base, ids[op.job], op.spec, reqID, ref)
				} else {
					err = submitOp(octx, c, base, op.spec, reqID, ref)
				}
				cancel()
				end := time.Now()
				inflight.Add(-1)
				l.results[i] = opResult{latency: end.Sub(due), late: start.Sub(due), dur: end.Sub(start), err: err}
			}
		}(l)
	}
	wg.Wait()
	return lanes, int(peak.Load())
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// jobStatus is the subset of the job API's status body the benchmark
// reads.
type jobStatus struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result *engine.Summary `json:"result"`
}

// submitOp posts one job, waits for the `end` frame of its event
// stream, reads the result and verifies it.
func submitOp(ctx context.Context, c *http.Client, base string, s spec, reqID string, ref *reference) error {
	sp, ctx := obs.StartSpan(ctx, "op.submit")
	defer sp.End()
	sp.Attr("request_id", reqID)
	sp.Attr("spec", s.String())
	st, code, err := post(ctx, c, base, s, reqID)
	if err != nil {
		return fmt.Errorf("%s: submit: %w", s, err)
	}
	sp.Attr("id", st.ID)
	if code == http.StatusOK {
		// Degraded-mode answer: the server served a cached result inline.
		return verifyStatus(s, st, ref)
	}
	stage, err := waitEnd(ctx, c, base, st.ID, reqID)
	if err != nil {
		return fmt.Errorf("%s: %s events: %w", s, st.ID, err)
	}
	if stage != "done" {
		return fmt.Errorf("%s: %s ended %q", s, st.ID, stage)
	}
	st, err = getStatus(ctx, c, base, st.ID, reqID)
	if err != nil {
		return fmt.Errorf("%s: %w", s, err)
	}
	return verifyStatus(s, st, ref)
}

// readOp reads back a pre-restart job and verifies it.
func readOp(ctx context.Context, c *http.Client, base, id string, s spec, reqID string, ref *reference) error {
	sp, ctx := obs.StartSpan(ctx, "op.read")
	defer sp.End()
	sp.Attr("request_id", reqID)
	sp.Attr("id", id)
	st, err := getStatus(ctx, c, base, id, reqID)
	if err != nil {
		return fmt.Errorf("%s: %w", s, err)
	}
	return verifyStatus(s, st, ref)
}

func verifyStatus(s spec, st jobStatus, ref *reference) error {
	if st.Status != "done" || st.Result == nil {
		return fmt.Errorf("%s: job %s is %q without a result (%s)", s, st.ID, st.Status, st.Error)
	}
	return ref.check(s, *st.Result)
}

func post(ctx context.Context, c *http.Client, base string, s spec, reqID string) (jobStatus, int, error) {
	sp, ctx := obs.StartSpan(ctx, "http.submit")
	defer sp.End()
	body, err := json.Marshal(s.request())
	if err != nil {
		return jobStatus{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return jobStatus{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return jobStatus{}, 0, err
	}
	st, err := decodeStatus(resp, http.StatusAccepted, http.StatusOK)
	return st, resp.StatusCode, err
}

func getStatus(ctx context.Context, c *http.Client, base, id, reqID string) (jobStatus, error) {
	sp, ctx := obs.StartSpan(ctx, "http.result")
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id, nil)
	if err != nil {
		return jobStatus{}, err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	return decodeStatus(resp, http.StatusOK)
}

// decodeStatus drains and decodes a job status response, failing on an
// unexpected status code.
func decodeStatus(resp *http.Response, want ...int) (jobStatus, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobStatus{}, err
	}
	expected := false
	for _, w := range want {
		expected = expected || resp.StatusCode == w
	}
	if !expected {
		return jobStatus{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return jobStatus{}, fmt.Errorf("decoding job status: %w", err)
	}
	return st, nil
}

// waitEnd follows a job's event stream until its `end` frame and
// returns the terminal stage it names. No polling: the server pushes
// the frame when the job settles.
func waitEnd(ctx context.Context, c *http.Client, base, id, reqID string) (string, error) {
	sp, ctx := obs.StartSpan(ctx, "http.events_wait")
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	br := bufio.NewReader(resp.Body)
	ended := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("stream closed before the end frame: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "event: end":
			ended = true
		case ended && strings.HasPrefix(line, "data: "):
			var ev struct {
				Stage string `json:"stage"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return "", fmt.Errorf("decoding end frame: %w", err)
			}
			// The server closes the stream after the end frame; draining
			// it lets the connection be reused for the result read.
			io.Copy(io.Discard, br)
			return ev.Stage, nil
		}
	}
}

// prewarmBurst submits every pre-warm job back to back, then follows
// each to its end frame and verifies its result; it returns the job
// IDs in spec order.
func prewarmBurst(ctx context.Context, c *http.Client, base string, specs []spec, ref *reference) ([]string, error) {
	ids := make([]string, len(specs))
	for i, s := range specs {
		st, code, err := post(ctx, c, base, s, fmt.Sprintf("relbench-prewarm-%04d", i))
		if err != nil {
			return nil, fmt.Errorf("pre-warm %s: %w", s, err)
		}
		if code != http.StatusAccepted {
			return nil, fmt.Errorf("pre-warm %s: HTTP %d, want 202", s, code)
		}
		ids[i] = st.ID
	}
	for i, s := range specs {
		reqID := fmt.Sprintf("relbench-prewarm-%04d", i)
		stage, err := waitEnd(ctx, c, base, ids[i], reqID)
		if err != nil {
			return nil, fmt.Errorf("pre-warm %s: %w", s, err)
		}
		if stage != "done" {
			return nil, fmt.Errorf("pre-warm %s: job %s ended %q", s, ids[i], stage)
		}
		st, err := getStatus(ctx, c, base, ids[i], reqID)
		if err != nil {
			return nil, fmt.Errorf("pre-warm %s: %w", s, err)
		}
		if err := verifyStatus(s, st, ref); err != nil {
			return nil, fmt.Errorf("pre-warm: %w", err)
		}
	}
	return ids, nil
}

// scrape reads the server's /metrics into series → value.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// server is one `rar -serve` child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	once   sync.Once
	err    error
}

// startServer launches rar -serve with one worker on the given journal
// and cache directories. The child is killed if this process dies.
func startServer(rar, addr, queueDir, cacheDir string, log io.Writer) (*server, error) {
	cmd := exec.Command(rar, "-serve", addr, "-j", "1", "-queue-dir", queueDir, "-cache-dir", cacheDir)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", rar, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200; the set-up is not timed
// by the poll interval beyond a couple of milliseconds.
func (s *server) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("rar -serve exited during start-up: %v", s.err)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !sleepUntil(ctx, time.Now().Add(2*time.Millisecond)) {
			return ctx.Err()
		}
	}
	return fmt.Errorf("rar -serve not ready within %v", readyTimeout)
}

// stop sends SIGINT and waits for a clean exit, killing the process if
// it does not exit in time. Safe to call more than once.
func (s *server) stop() error {
	var err error
	s.once.Do(func() {
		s.cmd.Process.Signal(os.Interrupt)
		select {
		case <-s.exited:
			if s.err != nil {
				err = fmt.Errorf("rar -serve shutdown: %w", s.err)
			}
		case <-time.After(stopTimeout):
			s.cmd.Process.Kill()
			<-s.exited
			err = fmt.Errorf("rar -serve did not stop within %v of SIGINT", stopTimeout)
		}
	})
	return err
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// dirMB sums the sizes of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
