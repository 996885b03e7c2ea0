package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram("h_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // le is inclusive → bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(time.Second)            // +Inf
	h.Observe(-time.Second)           // clamped to 0 → bucket 0
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	counts, total := h.snapshotCounts()
	if total != 6 {
		t.Fatalf("snapshot total = %d, want 6", total)
	}
	want := []int64{3, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if got, want := h.Sum(), 500*time.Microsecond+time.Millisecond+5*time.Millisecond+50*time.Millisecond+time.Second; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramBadBoundsFallBack(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		h := NewHistogram("h_seconds", bounds)
		if len(h.bounds) != len(DefaultLatencyBuckets()) {
			t.Errorf("bounds %v: got %d buckets, want default set", bounds, len(h.bounds))
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Name() != "" {
		t.Fatal("nil histogram accessors must be zero no-ops")
	}
}

func TestHistogramExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`relatch_job_stage_seconds{stage="solve"}`)
	h.Observe(3 * time.Millisecond)
	h.Observe(300 * time.Millisecond)
	r.Histogram(`relatch_job_stage_seconds{stage="certify"}`).Observe(time.Millisecond)
	r.Add(`relatch_queue_jobs_total{event="enqueued"}`, 2)
	r.Set("relatch_queue_depth", 1)

	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := ValidateMetrics(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not parse: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE relatch_job_stage_seconds histogram",
		`relatch_job_stage_seconds_bucket{stage="solve",le="+Inf"} 2`,
		`relatch_job_stage_seconds_count{stage="solve"} 2`,
		`relatch_job_stage_seconds_count{stage="certify"} 1`,
		`relatch_queue_jobs_total{event="enqueued"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per base name, even with two label sets.
	if got := strings.Count(out, "# TYPE relatch_job_stage_seconds histogram"); got != 1 {
		t.Errorf("TYPE line count = %d, want 1", got)
	}
}

func TestValidateMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1bad_name 3",
		`ok{label=unquoted} 1`,
		`ok{label="unterminated} 1`,
		"ok notafloat",
		"ok NaN",
		"# TYPE ok sideways",
	} {
		if err := ValidateMetrics(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ValidateMetrics accepted %q", bad)
		}
	}
	good := "# plain comment\n# HELP x_total help text\n# TYPE x_total counter\nx_total 4\nx_seconds_sum 0.25 1700000000\n"
	if err := ValidateMetrics(strings.NewReader(good)); err != nil {
		t.Errorf("ValidateMetrics rejected valid input: %v", err)
	}
}

func TestRegistryCloseSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds")
	r.Close()
	r.Close() // idempotent
	if r.Histogram("h_seconds") != nil {
		t.Fatal("closed registry must stop vending histograms")
	}
	r.Add("c_total", 1)
	r.Set("g", 1)
	if r.Counter("c_total") != 0 || r.Gauge("g") != 0 {
		t.Fatal("closed registry must drop writes")
	}
	h.Observe(time.Millisecond) // pre-close histogram stays safe
	var b strings.Builder
	if err := r.WriteMetrics(&b); err == nil {
		t.Fatal("closed registry WriteMetrics must refuse")
	}
}

// TestUntracedRecordPathAllocFree pins the serving hot path's disabled
// and always-on costs: StartSpan with no tracer attached, counter adds
// on the resulting nil span, and histogram records (real and nil) must
// all stay allocation-free. Measured 0.0 on the reference container;
// any regression means a box/closure crept into a per-job path.
func TestUntracedRecordPathAllocFree(t *testing.T) {
	ctx := context.Background()
	h := NewHistogram("h_seconds", DefaultLatencyBuckets())
	var nilH *Histogram
	avg := testing.AllocsPerRun(200, func() {
		sp, ctx2 := StartSpan(ctx, "stage")
		sp.Add("pivots", 1)
		sp.End()
		_ = ctx2
		h.Observe(17 * time.Millisecond)
		nilH.Observe(17 * time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("untraced record path: %.1f allocs per op, want 0", avg)
	}
}
