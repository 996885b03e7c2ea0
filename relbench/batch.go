package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"relatch/internal/engine"
	"relatch/internal/obs"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition (a GC, a steal burst) does not move it.
const setupReps = 5

// grarSweepSpecs is the G-RAR cost sweep: each circuit at c = 0.5, 1
// and 2, so neighbouring jobs differ only in the cost vector. The tiny
// variant swaps in small circuits for the self-test.
func grarSweepSpecs(tiny bool) []spec {
	circuits := []string{"s38584", "s35932", "Plasma"}
	if tiny {
		circuits = []string{"s1196", "s1238", "s1423"}
	}
	var out []spec
	for _, b := range circuits {
		for _, c := range []float64{0.5, 1, 2} {
			out = append(out, spec{b, "grar", c})
		}
	}
	return out
}

// vlRelaxSpecs is the virtual-library relax loop: NVL and RVL on three
// mid-size circuits plus NVL on s35932 (17/17, 37/34, 7/1 and 49 relax
// attempts). RVL on s13207 needs one attempt, the bypass case.
func vlRelaxSpecs(tiny bool) []spec {
	if tiny {
		return []spec{{"s1196", "nvl", 1}, {"s1196", "rvl", 1}, {"s1488", "nvl", 1}}
	}
	return []spec{
		{"s5378", "nvl", 1}, {"s5378", "rvl", 1},
		{"s9234", "nvl", 1}, {"s9234", "rvl", 1},
		{"s13207", "nvl", 1}, {"s13207", "rvl", 1},
		{"s35932", "nvl", 1},
	}
}

// grarSweepOrder permutes the circuit blocks and, inside each block of
// three costs, the cost order.
func grarSweepOrder(specs []spec, rng *rand.Rand) []spec {
	const block = 3
	blocks := make([][]spec, 0, len(specs)/block)
	for i := 0; i < len(specs); i += block {
		b := append([]spec(nil), specs[i:i+block]...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		blocks = append(blocks, b)
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	var out []spec
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

func shuffled(specs []spec, rng *rand.Rand) []spec {
	out := append([]spec(nil), specs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// batchConfig is the engine the batch workloads drive: one worker, no
// cache, so every Do solves.
var batchConfig = engine.Config{Workers: 1}

// passRecord is one timed pass over the job list.
type passRecord struct {
	traced bool
	wall   time.Duration // key spans excluded on traced passes
	doMS   []float64     // Engine.Do time per job
	acct   *accounting   // traced passes only
	keyMS  []float64     // traced passes only
}

// runBatch drives the engine in-process: BuildJob → New (one worker, no
// cache) → Do, checking every outcome's certificate and its equality
// with the reference. A traced run alternates untraced and traced
// passes, so the traced overhead compares passes of the same run.
func runBatch(ctx context.Context, o options, ref *reference, specs []spec) (*report, error) {
	if err := ref.covers(specs); err != nil {
		return nil, err
	}
	rep := newReport()
	var tr *obs.Tracer
	if o.trace {
		tr = obs.New("relbench." + o.workload)
		defer func() { tr.Finish(); writeTrace(o, tr, rep) }()
	}
	tctx := obs.WithTracer(ctx, tr)

	// Set-up: circuit generation and engine construction, repeated,
	// each repetition from an empty, collected heap.
	var setups []float64
	var jobs []engine.Job
	for i := 0; i < setupReps; i++ {
		jobs = nil
		runtime.GC()
		t0 := time.Now()
		jobs = make([]engine.Job, len(specs))
		for j, s := range specs {
			job, err := buildJob(tctx, s)
			if err != nil {
				return nil, err
			}
			jobs[j] = job
		}
		engine.New(batchConfig).Close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	if o.trace {
		rep.set("bench.build_ms", spanMeanMS(tr, "bench.build"))
	}

	// Timed phase: whole passes until the next one would overrun the
	// budget; at least one (one of each kind when traced).
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var passes []passRecord
	for {
		traced := o.trace && len(passes)%2 == 1
		pctx := ctx
		if traced {
			pctx = tctx
		}
		p, err := runPass(pctx, jobs, specs, ref, traced, rep)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if len(passes) == 1 {
			rss, err := peakRSSMB("self")
			if err != nil {
				return nil, err
			}
			rep.set("peak_rss_mb", rss)
		}
		if o.trace && len(passes) < 2 {
			continue
		}
		if time.Since(start)+p.wall > budget || ctx.Err() != nil {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var plainWall, tracedWall, allDo []float64
	acct := map[string][]float64{}
	var keyMS, overhead []float64
	for _, p := range passes {
		if !p.traced {
			plainWall = append(plainWall, p.wall.Seconds())
			allDo = append(allDo, p.doMS...)
			continue
		}
		tracedWall = append(tracedWall, p.wall.Seconds())
		keyMS = append(keyMS, p.keyMS...)
		overhead = append(overhead, p.acct.overheadMS...)
		layers := passLayers(p.acct)
		for _, name := range sortedKeys(layers) {
			acct[name] = append(acct[name], layers[name])
		}
	}
	rep.set("pass_s", median(plainWall))
	rep.set("job_geomean_ms", geomean(allDo))
	rep.note("passes: %d untraced %v s, %d traced %v s; %d jobs per pass; setup_s median of %d",
		len(plainWall), plainWall, len(tracedWall), tracedWall, len(specs), len(setups))
	if o.trace {
		for name, vs := range acct {
			rep.set(name, median(vs))
		}
		rep.set("engine.key_ms", mean(keyMS))
		rep.set("engine.do_overhead_ms", mean(overhead))
		rep.set("obs.traced_overhead_pct", (median(tracedWall)/median(plainWall)-1)*100)
	}
	return rep, nil
}

// passLayers maps one traced pass's accounting onto per-layer metric
// names (per-pass sums).
func passLayers(a *accounting) map[string]float64 {
	out := map[string]float64{
		"core.unattributed_ms":   a.selfMS["core.retime"],
		"vlib.unattributed_ms":   a.selfMS["vlib.retime"],
		"vlib.solve_ms":          a.vlibSolve,
		"flow.pivots":            float64(a.counters["flow.simplex.pivots"]),
		"flow.degenerate_pivots": float64(a.counters["flow.simplex.degenerate_pivots"]),
		"flow.fallbacks":         float64(a.counters["flow.solve.fallbacks"]),
		"vlib.attempts":          float64(a.counters["vlib.retime.attempts"]),
		"vlib.relaxed":           float64(a.counters["vlib.retime.relaxed"]),
	}
	for _, name := range []string{"lint.run", "sta.analyze", "core.evaluate", "cert.run",
		"rgraph.build", "flow.difflp", "flow.simplex", "flow.certify", "placement.apply"} {
		out[name+"_ms"] = a.selfMS[name]
	}
	return out
}

// runPass runs every job once, in order, checking each outcome. ctx
// carries the run's tracer on traced passes only.
func runPass(ctx context.Context, jobs []engine.Job, specs []spec, ref *reference, traced bool, rep *report) (passRecord, error) {
	p := passRecord{traced: traced}
	if traced {
		p.acct = newAccounting()
	}
	psp, ctx := obs.StartSpan(ctx, "bench.pass")
	defer psp.End()
	var keyTime time.Duration
	t0 := time.Now()
	for i, job := range jobs {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		r := runJob(ctx, job, specs[i], traced)
		err := r.err
		if err == nil {
			err = ref.check(specs[i], r.out.Summary())
		}
		rep.attempt(err)
		if err != nil {
			continue
		}
		p.doMS = append(p.doMS, ms(r.do))
		if traced {
			keyTime += r.key.Duration()
			p.keyMS = append(p.keyMS, ms(r.key.Duration()))
			if aerr := p.acct.addDo(r.doSpan); aerr != nil {
				rep.brokenInvariant(fmt.Errorf("%s: %w", specs[i], aerr))
			}
		}
	}
	p.wall = time.Since(t0) - keyTime
	return p, nil
}

// jobRun is one job's measurement.
type jobRun struct {
	out    *engine.Outcome
	err    error
	do     time.Duration // Engine.Do wall time
	doSpan *obs.Span     // bench.do, traced passes only
	key    *obs.Span     // bench.key, traced passes only
}

// runJob runs one job on a fresh engine from a collected heap. An
// engine keeps every ticket and outcome it served, so sharing one would
// make a job's heap, its collector work and the run's peak RSS depend
// on the jobs before it, and the seed permutes that order. Traced jobs
// also time Job.Key.
func runJob(ctx context.Context, job engine.Job, s spec, traced bool) (r jobRun) {
	runtime.GC()
	eng := engine.New(batchConfig)
	defer eng.Close()
	jsp, ctx := obs.StartSpan(ctx, "bench.job")
	defer jsp.End()
	jsp.Attr("spec", s.String())
	if traced {
		if r.key, r.err = hashJob(ctx, job); r.err != nil {
			return r
		}
	}
	dsp, dctx := obs.StartSpan(ctx, "bench.do")
	defer dsp.End()
	d0 := time.Now()
	r.out, r.err = eng.Do(dctx, job)
	r.do = time.Since(d0)
	dsp.End()
	r.doSpan = dsp
	return r
}

// buildJob runs engine.BuildJob under a bench.build span.
func buildJob(ctx context.Context, s spec) (engine.Job, error) {
	sp, _ := obs.StartSpan(ctx, "bench.build")
	defer sp.End()
	job, err := engine.BuildJob(s.request())
	if err != nil {
		return engine.Job{}, fmt.Errorf("building %s: %w", s, err)
	}
	return job, nil
}

// hashJob runs Job.Key under a bench.key span and returns the ended
// span (nil when ctx carries no tracer).
func hashJob(ctx context.Context, job engine.Job) (*obs.Span, error) {
	sp, _ := obs.StartSpan(ctx, "bench.key")
	defer sp.End()
	_, err := job.Key()
	return sp, err
}

// sortedKeys returns the map's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
