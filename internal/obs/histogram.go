package obs

import (
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets returns the log-spaced upper bounds (seconds)
// used for every latency histogram in the repo: 100µs doubling up to
// ~210s, which brackets everything from a cache hit to a Plasma-scale
// G-RAR solve. 22 buckets keeps the record path one cache line of
// counters and the +Inf tail catches pathological outliers.
func DefaultLatencyBuckets() []float64 {
	b := make([]float64, 22)
	v := 100e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Histogram is a fixed-bucket latency histogram with a lock-free record
// path: Observe is a binary search plus three atomic adds, safe for
// concurrent use and for nil receivers (no-op), matching the Span/
// Registry conventions. The series render in Prometheus text exposition
// (`_bucket`/`_sum`/`_count`); quantiles are the scraper's job.
type Histogram struct {
	name   string
	bounds []float64 // upper bounds in seconds, strictly ascending

	counts []atomic.Int64 // len(bounds)+1; the last slot is +Inf
	sumNS  atomic.Int64
	n      atomic.Int64
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (seconds). Bounds must be strictly ascending and non-empty; anything
// else falls back to DefaultLatencyBuckets so a bad literal can never
// produce a histogram that drops observations.
func NewHistogram(name string, bounds []float64) *Histogram {
	ok := len(bounds) > 0
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			ok = false
			break
		}
	}
	if !ok {
		bounds = DefaultLatencyBuckets()
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
	}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Name returns the metric name the histogram was registered under
// (may carry a literal Prometheus label set).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Observe records one duration. Allocation-free and lock-free: the
// serving hot path records per-stage latencies through here on every
// job without contending with /metrics readers.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	// Binary search for the first bound >= s; `le` is inclusive, so an
	// observation equal to a bound lands in that bound's bucket. Misses
	// past the last bound land in the +Inf slot.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// Count returns how many observations the histogram has absorbed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of every observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// snapshotCounts reads the per-bucket counters into a plain slice and
// returns their total. Concurrent Observes may skew individual buckets
// by an in-flight observation, but the returned total always equals the
// sum of the returned buckets, so cumulative renders stay consistent.
func (h *Histogram) snapshotCounts() ([]int64, int64) {
	counts := make([]int64, len(h.counts))
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// splitMetricName splits a registered name into its base and any
// literal label set: `x_seconds{stage="solve"}` → ("x_seconds",
// `stage="solve"`). The bucket series merges `le` into that label set.
func splitMetricName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// writeSeries renders the `_bucket`/`_sum`/`_count` sample lines in
// Prometheus text exposition. The caller owns the `# TYPE` line (one
// per base name, even when several label sets share it).
func (h *Histogram) writeSeries(w io.Writer) error {
	base, labels := splitMetricName(h.name)
	counts, total := h.snapshotCounts()
	var b strings.Builder
	cum := int64(0)
	for i := range counts {
		cum += counts[i]
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		b.WriteString(base)
		b.WriteString("_bucket{")
		if labels != "" {
			b.WriteString(labels)
			b.WriteString(",")
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteString("\n")
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	b.WriteString(base)
	b.WriteString("_sum")
	b.WriteString(suffix)
	b.WriteString(" ")
	b.WriteString(strconv.FormatFloat(float64(h.sumNS.Load())/1e9, 'g', -1, 64))
	b.WriteString("\n")
	b.WriteString(base)
	b.WriteString("_count")
	b.WriteString(suffix)
	b.WriteString(" ")
	b.WriteString(strconv.FormatInt(total, 10))
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}
