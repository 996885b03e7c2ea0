package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Report is the exportable view of a tracer's span tree. It wraps the
// live tree: every Write* call walks the current state under the spans'
// own locks, so a report attached mid-pipeline stays accurate when
// exported after the run completes.
type Report struct {
	root *Span
}

// Root returns the report's root span.
func (r *Report) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Spans returns every span with the given name, in depth-first
// pre-order. An empty name matches all spans.
func (r *Report) Spans(name string) []*Span {
	if r == nil || r.root == nil {
		return nil
	}
	var out []*Span
	var walk func(s *Span)
	walk = func(s *Span) {
		if name == "" || s.name == name {
			out = append(out, s)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(r.root)
	return out
}

// Sum aggregates a counter over every span with the given name — the
// query tests and the bench trajectory use to read "total pivots" off a
// run regardless of how many solves it contained.
func (r *Report) Sum(spanName, counter string) int64 {
	var sum int64
	for _, s := range r.Spans(spanName) {
		sum += s.Counter(counter)
	}
	return sum
}

// WriteText renders the tree as an indented human-readable outline:
// one line per span with duration, counters, gauges and attributes,
// events inline as markers.
func (r *Report) WriteText(w io.Writer) {
	if r == nil || r.root == nil {
		return
	}
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		end, counters, gauges, attrs, events, children := s.snapshot()
		_ = end
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s %s", s.name, fmtDuration(s.Duration()))
		for _, k := range sortedKeys(counters) {
			fmt.Fprintf(&b, " %s=%d", k, counters[k])
		}
		for _, k := range sortedKeys(gauges) {
			fmt.Fprintf(&b, " %s=%d", k, gauges[k])
		}
		attrKeys := make([]string, 0, len(attrs))
		for k := range attrs {
			attrKeys = append(attrKeys, k)
		}
		sort.Strings(attrKeys)
		for _, k := range attrKeys {
			fmt.Fprintf(&b, " %s=%q", k, attrs[k])
		}
		for _, e := range events {
			fmt.Fprintf(&b, " [%s @%s]", e.Name, fmtDuration(e.At.Sub(s.start)))
		}
		fmt.Fprintln(w, b.String())
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(r.root, 0)
}

// fmtDuration rounds a duration to a stable, readable precision.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// spanJSON is the machine-JSON shape of one span. Offsets are
// nanoseconds from the root span's start, so traces are relocatable.
type spanJSON struct {
	Name     string            `json:"name"`
	StartNs  int64             `json:"start_ns"`
	DurNs    int64             `json:"dur_ns"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Events   []eventJSON       `json:"events,omitempty"`
	Children []spanJSON        `json:"children,omitempty"`
}

type eventJSON struct {
	Name string `json:"name"`
	AtNs int64  `json:"at_ns"`
}

func (r *Report) toJSON(s *Span, epoch time.Time) spanJSON {
	_, counters, gauges, attrs, events, children := s.snapshot()
	j := spanJSON{
		Name:    s.name,
		StartNs: s.start.Sub(epoch).Nanoseconds(),
		DurNs:   s.Duration().Nanoseconds(),
	}
	if len(counters) > 0 {
		j.Counters = counters
	}
	if len(gauges) > 0 {
		j.Gauges = gauges
	}
	if len(attrs) > 0 {
		j.Attrs = attrs
	}
	for _, e := range events {
		j.Events = append(j.Events, eventJSON{Name: e.Name, AtNs: e.At.Sub(epoch).Nanoseconds()})
	}
	for _, c := range children {
		j.Children = append(j.Children, r.toJSON(c, epoch))
	}
	return j
}

// WriteJSON encodes the tree as indented machine JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	if r == nil || r.root == nil {
		return fmt.Errorf("obs: nil report")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.toJSON(r.root, r.root.start))
}

// chromeEvent is one entry of the Chrome trace-event format. Complete
// events ("ph":"X") carry ts/dur in microseconds; instant events
// ("ph":"i") mark a point. The output loads directly in chrome://tracing
// and in Perfetto.
type chromeEvent struct {
	Name  string                 `json:"name"`
	Phase string                 `json:"ph"`
	Ts    float64                `json:"ts"`
	Dur   *float64               `json:"dur,omitempty"`
	Pid   int                    `json:"pid"`
	Tid   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace encodes the tree in Chrome trace-event JSON
// ({"traceEvents": [...]}). Counters, gauges and attributes become the
// per-event args pane; span events become instant markers.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	if r == nil || r.root == nil {
		return fmt.Errorf("obs: nil report")
	}
	epoch := r.root.start
	var evs []chromeEvent
	var walk func(s *Span)
	walk = func(s *Span) {
		_, counters, gauges, attrs, events, children := s.snapshot()
		args := make(map[string]interface{}, len(counters)+len(gauges)+len(attrs))
		for k, v := range counters {
			args[k] = v
		}
		for k, v := range gauges {
			args[k] = v
		}
		for k, v := range attrs {
			args[k] = v
		}
		dur := float64(s.Duration().Nanoseconds()) / 1e3
		ev := chromeEvent{
			Name:  s.name,
			Phase: "X",
			Ts:    float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:   &dur,
			Pid:   1,
			Tid:   1,
		}
		if len(args) > 0 {
			ev.Args = args
		}
		evs = append(evs, ev)
		for _, e := range events {
			evs = append(evs, chromeEvent{
				Name:  e.Name,
				Phase: "i",
				Ts:    float64(e.At.Sub(epoch).Nanoseconds()) / 1e3,
				Pid:   1,
				Tid:   1,
				Scope: "t",
			})
		}
		for _, c := range children {
			walk(c)
		}
	}
	walk(r.root)
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// WriteMetrics dumps the tree as Prometheus-style text: span counts and
// durations aggregated by span name, counters summed and gauges
// last-value per (span, name) pair. Output order is deterministic.
func (r *Report) WriteMetrics(w io.Writer) {
	if r == nil || r.root == nil {
		return
	}
	r.totals().write(w)
}

// spanKey names one per-span counter or gauge series.
type spanKey struct{ span, name string }

// spanTotals aggregates spans by name into the four metric families
// WriteMetrics renders.
type spanTotals struct {
	count    map[string]int64
	seconds  map[string]float64
	counters map[spanKey]int64
	gauges   map[spanKey]int64
}

func newSpanTotals() *spanTotals {
	return &spanTotals{
		count:    make(map[string]int64),
		seconds:  make(map[string]float64),
		counters: make(map[spanKey]int64),
		gauges:   make(map[spanKey]int64),
	}
}

// totals aggregates every span of the tree: the one aggregation behind
// both WriteMetrics and Registry.Fold.
func (r *Report) totals() *spanTotals {
	t := newSpanTotals()
	for _, s := range r.Spans("") {
		t.count[s.name]++
		t.seconds[s.name] += s.Duration().Seconds()
		_, cs, gs, _, _, _ := s.snapshot()
		for k, v := range cs {
			t.counters[spanKey{s.name, k}] += v
		}
		for k, v := range gs {
			t.gauges[spanKey{s.name, k}] = v
		}
	}
	return t
}

// add merges o into t: counts, durations and counters sum, and o's
// gauges overwrite t's.
func (t *spanTotals) add(o *spanTotals) {
	for k, v := range o.count {
		t.count[k] += v
	}
	for k, v := range o.seconds {
		t.seconds[k] += v
	}
	for k, v := range o.counters {
		t.counters[k] += v
	}
	for k, v := range o.gauges {
		t.gauges[k] = v
	}
}

// write renders the totals as Prometheus text, nothing when no span was
// counted.
func (t *spanTotals) write(w io.Writer) {
	if len(t.count) == 0 {
		return
	}
	names := sortedKeys(t.count)
	fmt.Fprintln(w, "# HELP relatch_span_total Number of completed pipeline spans by name.")
	fmt.Fprintln(w, "# TYPE relatch_span_total counter")
	for _, n := range names {
		fmt.Fprintf(w, "relatch_span_total{span=%q} %d\n", n, t.count[n])
	}
	fmt.Fprintln(w, "# HELP relatch_span_duration_seconds Wall time spent in pipeline spans by name.")
	fmt.Fprintln(w, "# TYPE relatch_span_duration_seconds counter")
	for _, n := range names {
		fmt.Fprintf(w, "relatch_span_duration_seconds{span=%q} %g\n", n, t.seconds[n])
	}
	fmt.Fprintln(w, "# HELP relatch_counter_total Per-span work counters (pivots, augmenting paths, rules fired, ...).")
	fmt.Fprintln(w, "# TYPE relatch_counter_total counter")
	for _, k := range sortedSpanKeys(t.counters) {
		fmt.Fprintf(w, "relatch_counter_total{span=%q,counter=%q} %d\n", k.span, k.name, t.counters[k])
	}
	fmt.Fprintln(w, "# HELP relatch_gauge Per-span point-in-time values (node counts, LP sizes, ...).")
	fmt.Fprintln(w, "# TYPE relatch_gauge gauge")
	for _, k := range sortedSpanKeys(t.gauges) {
		fmt.Fprintf(w, "relatch_gauge{span=%q,gauge=%q} %d\n", k.span, k.name, t.gauges[k])
	}
}

func sortedSpanKeys(m map[spanKey]int64) []spanKey {
	out := make([]spanKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].span != out[j].span {
			return out[i].span < out[j].span
		}
		return out[i].name < out[j].name
	})
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
