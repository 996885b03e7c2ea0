package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"relatch/internal/engine"
)

// spec names one job the benchmark can submit: a built-in benchmark
// circuit, an approach (API name) and the EDL overhead factor c.
type spec struct {
	Bench    string  `json:"bench"`
	Approach string  `json:"approach"`
	C        float64 `json:"c"`
}

func (s spec) String() string { return fmt.Sprintf("%s/%s/c=%g", s.Bench, s.Approach, s.C) }

// request renders the spec as the job API request both the in-process
// and the HTTP paths take.
func (s spec) request() engine.JobRequest {
	c := s.C
	return engine.JobRequest{Bench: s.Bench, Approach: s.Approach, C: &c}
}

// row is one reference output: the deterministic columns of a job's
// summary. The float columns are compared exactly — the pipeline's
// determinism contract makes them byte-identical run to run.
type row struct {
	spec
	Slaves    int     `json:"slaves"`
	Masters   int     `json:"masters"`
	ED        int     `json:"ed"`
	SeqArea   float64 `json:"seq_area"`
	TotalArea float64 `json:"total_area"`
}

// reference is the committed table of expected outputs for every spec
// any workload can draw.
type reference struct {
	rows map[spec]row
}

func loadReference(path string) (*reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference table: %w", err)
	}
	var doc struct {
		Rows []row `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding reference table %s: %w", path, err)
	}
	ref := &reference{rows: make(map[spec]row, len(doc.Rows))}
	for _, r := range doc.Rows {
		if _, dup := ref.rows[r.spec]; dup {
			return nil, fmt.Errorf("reference table %s: duplicate row %s", path, r.spec)
		}
		ref.rows[r.spec] = r
	}
	return ref, nil
}

// covers reports an error naming the first spec the table lacks, so a
// workload refuses to start rather than fail every operation.
func (ref *reference) covers(specs []spec) error {
	for _, s := range specs {
		if _, ok := ref.rows[s]; !ok {
			return fmt.Errorf("reference table has no row for %s", s)
		}
	}
	return nil
}

// check verifies one job result: certified, and equal to the reference
// row in every deterministic column.
func (ref *reference) check(s spec, sum engine.Summary) error {
	if !sum.Certified {
		return fmt.Errorf("%s: result not certified", s)
	}
	want, ok := ref.rows[s]
	if !ok {
		return fmt.Errorf("%s: no reference row", s)
	}
	got := rowOf(s, sum)
	if got != want {
		return fmt.Errorf("%s: got slaves=%d masters=%d ed=%d seq_area=%v total_area=%v, reference slaves=%d masters=%d ed=%d seq_area=%v total_area=%v",
			s, got.Slaves, got.Masters, got.ED, got.SeqArea, got.TotalArea,
			want.Slaves, want.Masters, want.ED, want.SeqArea, want.TotalArea)
	}
	return nil
}

func rowOf(s spec, sum engine.Summary) row {
	return row{spec: s, Slaves: sum.Slaves, Masters: sum.Masters, ED: sum.ED,
		SeqArea: sum.SeqArea, TotalArea: sum.TotalArea}
}

// allSpecs lists every spec any workload can draw, in a fixed order.
// The tiny self-test specs are serve-grid points.
func allSpecs() []spec {
	out := append(grarSweepSpecs(false), vlRelaxSpecs(false)...)
	return append(out, serveGrid()...)
}

// sspSkip names circuits whose SSP cross-check takes more than five
// minutes per job; their simplex result must carry the LP-duality
// optimality certificate instead.
var sspSkip = map[string]bool{"Plasma": true}

// pipelineRow is the subset of a BENCH_pipeline.json row the reference
// generator cross-checks (c = 1 only).
type pipelineRow struct {
	Bench     string  `json:"bench"`
	Approach  string  `json:"approach"`
	Slaves    int     `json:"slaves"`
	Masters   int     `json:"masters"`
	ED        int     `json:"ed"`
	SeqArea   float64 `json:"seq_area"`
	TotalArea float64 `json:"total_area"`
}

// generateReference solves every spec with the default solver, checks
// the certificate, cross-checks the result against the SSP solver (or,
// for sspSkip circuits, the simplex duality certificate) and against
// the committed c = 1 pipeline rows, and writes the table. workers
// solves run at once; results do not depend on it.
func generateReference(ctx context.Context, out, pipelinePath string, workers int, log io.Writer) error {
	pipeline := map[[2]string]pipelineRow{}
	raw, err := os.ReadFile(pipelinePath)
	if err != nil {
		return fmt.Errorf("reading %s: %w", pipelinePath, err)
	}
	var doc struct {
		Rows []pipelineRow `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("decoding %s: %w", pipelinePath, err)
	}
	for _, r := range doc.Rows {
		pipeline[[2]string{r.Bench, r.Approach}] = r
	}

	specs := allSpecs()
	rows := make([]row, len(specs))
	errs := make([]error, len(specs))
	eng := engine.New(engine.Config{Workers: workers})
	defer eng.Close()
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	var mu sync.Mutex
	for i, s := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s spec) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			rows[i], errs[i] = referenceRow(ctx, eng, s, pipeline)
			mu.Lock()
			fmt.Fprintf(log, "relbench: reference %s %v err=%v\n", s, time.Since(t0).Round(time.Millisecond), errs[i])
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i].spec, rows[j].spec
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Approach != b.Approach {
			return a.Approach < b.Approach
		}
		return a.C < b.C
	})
	buf, err := json.MarshalIndent(struct {
		Rows []row `json:"rows"`
	}{rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

// referenceRow solves one spec and cross-checks it.
func referenceRow(ctx context.Context, eng *engine.Engine, s spec, pipeline map[[2]string]pipelineRow) (row, error) {
	res, err := solveSpec(ctx, eng, s, "")
	if err != nil {
		return row{}, err
	}
	sum := res.Summary()
	if !sum.Certified {
		return row{}, fmt.Errorf("%s: result not certified", s)
	}
	r := rowOf(s, sum)
	if sspSkip[s.Bench] {
		if res.Core == nil || !res.Core.SolverCertified || sum.Fallback {
			return row{}, fmt.Errorf("%s: simplex result lacks the duality certificate", s)
		}
	} else {
		alt, err := solveSpec(ctx, eng, s, "ssp")
		if err != nil {
			return row{}, err
		}
		if got := rowOf(s, alt.Summary()); got != r {
			return row{}, fmt.Errorf("%s: ssp gives %+v, default solver %+v", s, got, r)
		}
	}
	if s.C == 1 {
		p, ok := pipeline[[2]string{s.Bench, sum.Approach}]
		if !ok {
			return row{}, fmt.Errorf("%s: no BENCH_pipeline.json row to cross-check", s)
		}
		want := row{spec: s, Slaves: p.Slaves, Masters: p.Masters, ED: p.ED, SeqArea: p.SeqArea, TotalArea: p.TotalArea}
		if want != r {
			return row{}, fmt.Errorf("%s: BENCH_pipeline.json has %+v, solved %+v", s, want, r)
		}
	}
	return r, nil
}

func solveSpec(ctx context.Context, eng *engine.Engine, s spec, method string) (*engine.Outcome, error) {
	req := s.request()
	req.Method = method
	job, err := engine.BuildJob(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s, err)
	}
	out, err := eng.Do(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("%s (method %q): %w", s, method, err)
	}
	return out, nil
}
