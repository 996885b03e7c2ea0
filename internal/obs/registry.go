package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a process-wide metrics sink for components whose lifetime
// outlives any single traced request — the durable job queue, lease
// sweeps, recovery replays. Spans cover work that happens inside one
// context; the registry covers state transitions that happen on
// background goroutines and must still show up on /metrics, plus the
// per-name totals of every trace folded into it. All methods are safe
// on a nil receiver (no-ops) and for concurrent use, matching the Span
// conventions.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64      // guarded by mu
	gauges   map[string]int64      // guarded by mu
	hists    map[string]*Histogram // guarded by mu (the *Histogram itself is lock-free)
	spans    *spanTotals           // guarded by mu (totals of every folded trace)
	closed   bool                  // guarded by mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
		spans:    newSpanTotals(),
	}
}

// Close marks the registry torn down: later Add/Set calls are dropped,
// Histogram stops vending (returns nil, whose record path is a no-op)
// and WriteMetrics refuses with ErrClosed. Histograms vended before the
// close stay safe to Observe — the records just never render again.
// Idempotent and nil-safe.
func (r *Registry) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// Add increments a monotonic counter. The name may carry a literal
// Prometheus label set, e.g. `relatch_queue_jobs_total{event="retry"}`.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.closed {
		r.counters[name] += delta
	}
	r.mu.Unlock()
}

// Set records a point-in-time gauge value; the last write wins.
func (r *Registry) Set(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.closed {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// Histogram returns the latency histogram registered under name,
// creating it with DefaultLatencyBuckets on first use. The name may
// carry a literal Prometheus label set, e.g.
// `relatch_job_stage_seconds{stage="solve"}`; the `_bucket` exposition
// merges `le` into it. Returns nil — an inert histogram — on a nil or
// closed registry, so record sites need no guards.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(name, DefaultLatencyBuckets())
		r.hists[name] = h
	}
	return h
}

// Fold finishes the tracer and adds its span tree to the registry's
// per-name totals, the families Report.WriteMetrics renders. The
// registry keeps the totals only, so a process that traces each job
// with its own tracer holds one series per span name, however many
// jobs it served. The tree is aggregated before the registry lock is
// taken: no span lock is ever held under it. Nil-safe.
func (r *Registry) Fold(t *Tracer) {
	t.Finish()
	if r == nil || t == nil {
		return
	}
	tot := t.Report().totals()
	r.mu.Lock()
	if !r.closed {
		r.spans.add(tot)
	}
	r.mu.Unlock()
}

// Counter returns a counter's accumulated value (0 when absent).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns a gauge's last value (0 when absent).
func (r *Registry) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// WriteMetrics renders the folded span totals, then every counter,
// gauge and histogram in Prometheus text format, sorted by name so
// output is diff-stable. Histograms render after the scalar lines,
// with one `# TYPE ... histogram` header per base name even when
// several label sets share it. A closed registry refuses with a wrapped ErrClosed — scrapes
// racing a teardown get an error, never a half-rendered page.
func (r *Registry) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("obs: write metrics: registry %w", ErrClosed)
	}
	var spans bytes.Buffer
	r.spans.write(&spans)
	lines := make([]string, 0, len(r.counters)+len(r.gauges))
	for k, v := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, name := range sortedKeys(r.hists) {
		hists = append(hists, r.hists[name])
	}
	r.mu.Unlock()
	if _, err := w.Write(spans.Bytes()); err != nil {
		return err
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	lastBase := ""
	for _, h := range hists {
		if base, _ := splitMetricName(h.name); base != lastBase {
			lastBase = base
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
		}
		if err := h.writeSeries(w); err != nil {
			return err
		}
	}
	return nil
}
