// Package obs is the pipeline's tracing and metrics substrate: a
// context-carried span tree with per-span counters, gauges, attributes
// and instant events, plus exporters (text tree, machine JSON, Chrome
// trace-event format, Prometheus-style metrics text) and a slog handler
// for structured progress logging. It depends only on the standard
// library.
//
// Tracing is opt-in per context. A caller that wants a trace creates a
// Tracer, attaches it with WithTracer, and hands the context down the
// pipeline; instrumented stages call StartSpan. When no tracer is
// attached, StartSpan returns a nil *Span after a single context lookup,
// and every *Span method is a nil-receiver no-op — the disabled path
// costs one allocation-free branch per call site, so instrumentation can
// stay on permanently (BenchmarkRetimeTraced / BenchmarkRetimeUntraced
// in the repo root guard the overhead).
//
// Counters follow the retiming literature's convention of treating
// solver iteration counts as the first-class cost signal: the flow layer
// records simplex pivots and SSP augmenting paths per solve, and every
// other stage reports its own work units (lint rules fired, STA
// relaxations, certifier findings, LP sizes).
package obs

import (
	"context"
	"sync"
	"time"
)

// ctxKey carries the current *Span. A single key serves both tracer
// discovery (the span holds its tracer) and parent/child nesting.
type ctxKey struct{}

// Tracer owns one span tree. The zero value is not usable; call New.
type Tracer struct {
	root *Span
	// hook, fixed at construction, sees every span start and counter add
	// as it happens (nil = none).
	hook func(StreamEvent)
}

// New creates a tracer whose root span is open from now until Finish.
func New(name string) *Tracer { return NewWithHook(name, nil) }

// NewWithHook is New with a hook that sees each child span start (kind
// "span_start", the span name) and each counter add (kind "counter",
// the counter name, the delta) as it happens: the tap a live feed
// filters. The hook runs on the recording goroutine, outside every span
// lock, so it must not block.
func NewWithHook(name string, hook func(StreamEvent)) *Tracer {
	t := &Tracer{hook: hook}
	t.root = &Span{tracer: t, name: name, start: time.Now()}
	return t
}

// Root returns the tracer's root span.
func (t *Tracer) Root() *Span { return t.root }

// Finish ends the root span. Idempotent.
func (t *Tracer) Finish() {
	if t != nil {
		t.root.End()
	}
}

// Report returns the exportable view of the span tree. The report wraps
// the live tree: exporting after more spans complete reflects them, so
// core can attach a report mid-pipeline and the CLI can export the full
// picture at exit.
func (t *Tracer) Report() *Report {
	if t == nil {
		return nil
	}
	return &Report{root: t.root}
}

// WithTracer attaches the tracer to the context; descendant StartSpan
// calls nest under its root span.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t.root)
}

// FromContext returns the tracer carried by the context, or nil when
// tracing is off.
func FromContext(ctx context.Context) *Tracer {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil {
		return nil
	}
	return s.tracer
}

// StartSpan opens a child of the context's current span and returns it
// with a derived context carrying it. With tracing off it returns
// (nil, ctx) after one context lookup — the documented fast path.
// The caller must End the span (defer sp.End() is the idiom).
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return nil, ctx
	}
	s := parent.newChild(name)
	return s, context.WithValue(ctx, ctxKey{}, s)
}

// Event is an instant marker inside a span (e.g. the simplex→SSP
// fallback decision).
type Event struct {
	Name string
	At   time.Time
}

// Span is one timed node of the trace tree. All methods are safe on a
// nil receiver (no-ops) and safe for concurrent use: each span guards
// its own state with a mutex, so sibling stages running in parallel
// never contend on a shared sink.
type Span struct {
	tracer *Tracer
	name   string
	start  time.Time

	mu       sync.Mutex
	end      time.Time         // guarded by mu
	counters map[string]int64  // guarded by mu
	gauges   map[string]int64  // guarded by mu
	attrs    map[string]string // guarded by mu
	events   []Event           // guarded by mu
	children []*Span           // guarded by mu
}

func (s *Span) newChild(name string) *Span {
	c := &Span{tracer: s.tracer, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	if h := s.tracer.hook; h != nil {
		h(StreamEvent{Kind: "span_start", Name: name})
	}
	return c
}

// Enabled reports whether the span records anything; callers use it to
// skip derived-statistic computation on the disabled path.
func (s *Span) Enabled() bool { return s != nil }

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// End closes the span. The first call wins; later calls are no-ops, so
// a deferred End composes with early explicit ones.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// endTime returns the recorded end, or the latest descendant activity
// for a still-open span (so mid-pipeline reports render sensibly).
func (s *Span) endTime() time.Time {
	s.mu.Lock()
	end := s.end
	children := s.children
	s.mu.Unlock()
	if !end.IsZero() {
		return end
	}
	end = s.start
	for _, c := range children {
		if ce := c.endTime(); ce.After(end) {
			end = ce
		}
	}
	return end
}

// Duration returns the span's wall time (through the latest descendant
// when the span is still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.endTime().Sub(s.start)
}

// Add increments a counter (monotonic work units: pivots, augmenting
// paths, rules fired).
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += delta
	s.mu.Unlock()
	if h := s.tracer.hook; h != nil {
		h(StreamEvent{Kind: "counter", Name: name, Value: delta})
	}
}

// Gauge records a point-in-time value (node counts, LP sizes). The last
// write wins.
func (s *Span) Gauge(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.gauges == nil {
		s.gauges = make(map[string]int64)
	}
	s.gauges[name] = v
	s.mu.Unlock()
}

// Attr records a string attribute (solver method, approach, model).
func (s *Span) Attr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = val
	s.mu.Unlock()
}

// Event records an instant marker at the current time.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, Event{Name: name, At: time.Now()})
	s.mu.Unlock()
}

// Fail records the error as the span's "error" attribute; nil errors are
// ignored, so `defer func() { sp.Fail(err); sp.End() }()` is safe on the
// success path.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.Attr("error", err.Error())
}

// Counter returns the counter's accumulated value (0 when absent).
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// GaugeValue returns the gauge's last value and whether it was set.
func (s *Span) GaugeValue(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.gauges[name]
	return v, ok
}

// AttrValue returns the attribute value ("" when absent).
func (s *Span) AttrValue(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// Events returns a copy of the span's recorded instant events.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Children returns a copy of the span's current children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// snapshot captures a consistent copy of the span's recorded state.
func (s *Span) snapshot() (end time.Time, counters, gauges map[string]int64, attrs map[string]string, events []Event, children []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counters = make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	gauges = make(map[string]int64, len(s.gauges))
	for k, v := range s.gauges {
		gauges[k] = v
	}
	attrs = make(map[string]string, len(s.attrs))
	for k, v := range s.attrs {
		attrs[k] = v
	}
	events = append([]Event(nil), s.events...)
	children = append([]*Span(nil), s.children...)
	return s.end, counters, gauges, attrs, events, children
}
