package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestDisabledFastPath: without a tracer, StartSpan returns a nil span
// and the unchanged context, and every method no-ops.
func TestDisabledFastPath(t *testing.T) {
	ctx := context.Background()
	sp, ctx2 := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatalf("StartSpan without tracer returned %v, want nil", sp)
	}
	if ctx2 != ctx {
		t.Fatalf("StartSpan without tracer derived a new context")
	}
	if sp.Enabled() {
		t.Fatal("nil span reports Enabled")
	}
	// All nil-receiver methods must be safe.
	sp.Add("c", 1)
	sp.Gauge("g", 2)
	sp.Attr("k", "v")
	sp.Event("e")
	sp.Fail(nil)
	sp.End()
	if sp.Counter("c") != 0 || sp.Name() != "" || sp.Duration() != 0 {
		t.Fatal("nil span leaked state")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext without tracer is non-nil")
	}
	var tr *Tracer
	if tr.Report() != nil {
		t.Fatal("nil tracer Report is non-nil")
	}
	tr.Finish()
}

// TestSpanTree: nesting follows the context, counters/gauges/attrs
// accumulate, and Report queries see them.
func TestSpanTree(t *testing.T) {
	tr := New("root")
	ctx := WithTracer(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext did not return the attached tracer")
	}

	a, ctx2 := StartSpan(ctx, "stage.a")
	a.Add("work", 3)
	a.Add("work", 4)
	a.Gauge("size", 10)
	a.Attr("mode", "fast")
	b, _ := StartSpan(ctx2, "stage.b")
	b.Add("work", 5)
	b.Event("fallback")
	b.End()
	a.End()
	// Sibling of a, same name as b.
	b2, _ := StartSpan(ctx, "stage.b")
	b2.Add("work", 2)
	b2.End()
	tr.Finish()

	rep := tr.Report()
	if got := rep.Sum("stage.a", "work"); got != 7 {
		t.Fatalf("Sum(stage.a, work) = %d, want 7", got)
	}
	if got := rep.Sum("stage.b", "work"); got != 7 {
		t.Fatalf("Sum(stage.b, work) = %d, want 7 across both spans", got)
	}
	if n := len(rep.Spans("stage.b")); n != 2 {
		t.Fatalf("Spans(stage.b) = %d spans, want 2", n)
	}
	if n := len(rep.Spans("")); n != 4 {
		t.Fatalf("Spans(\"\") = %d spans, want 4", n)
	}
	root := rep.Root()
	if root.Name() != "root" || len(root.Children()) != 2 {
		t.Fatalf("root %q has %d children, want 2", root.Name(), len(root.Children()))
	}
	if v, ok := rep.Spans("stage.a")[0].GaugeValue("size"); !ok || v != 10 {
		t.Fatalf("gauge size = %d,%v", v, ok)
	}
	if rep.Spans("stage.a")[0].AttrValue("mode") != "fast" {
		t.Fatal("attr mode lost")
	}
}

// TestWriteText: the outline includes every span name, counters and the
// event marker, indented by depth.
func TestWriteText(t *testing.T) {
	tr := New("run")
	ctx := WithTracer(context.Background(), tr)
	a, ctx := StartSpan(ctx, "parent")
	b, _ := StartSpan(ctx, "child")
	b.Add("pivots", 42)
	b.Event("fallback")
	b.End()
	a.End()
	tr.Finish()

	var buf bytes.Buffer
	tr.Report().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"run ", "\n  parent ", "\n    child ", "pivots=42", "[fallback @"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSON: the machine JSON round-trips and preserves structure.
func TestWriteJSON(t *testing.T) {
	tr := New("run")
	ctx := WithTracer(context.Background(), tr)
	a, _ := StartSpan(ctx, "solve")
	a.Add("pivots", 9)
	a.Attr("method", "simplex")
	a.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name     string `json:"name"`
		DurNs    int64  `json:"dur_ns"`
		Children []struct {
			Name     string            `json:"name"`
			Counters map[string]int64  `json:"counters"`
			Attrs    map[string]string `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.Name != "run" || len(got.Children) != 1 {
		t.Fatalf("unexpected shape: %+v", got)
	}
	c := got.Children[0]
	if c.Name != "solve" || c.Counters["pivots"] != 9 || c.Attrs["method"] != "simplex" {
		t.Fatalf("child lost data: %+v", c)
	}
}

// TestWriteChromeTrace: the trace-event JSON parses, contains one
// complete event per span with pid/tid/ts/dur, and instant events for
// span events.
func TestWriteChromeTrace(t *testing.T) {
	tr := New("run")
	ctx := WithTracer(context.Background(), tr)
	a, ctx := StartSpan(ctx, "flow.solve")
	b, _ := StartSpan(ctx, "flow.simplex")
	b.Add("pivots", 7)
	b.End()
	a.Event("fallback")
	a.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.Report().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name  string                 `json:"name"`
			Phase string                 `json:"ph"`
			Ts    float64                `json:"ts"`
			Pid   int                    `json:"pid"`
			Args  map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]string{}
	var sawPivots bool
	for _, e := range got.TraceEvents {
		byName[e.Name] = e.Phase
		if e.Pid != 1 {
			t.Fatalf("event %q pid %d, want 1", e.Name, e.Pid)
		}
		if e.Name == "flow.simplex" && e.Args["pivots"] == float64(7) {
			sawPivots = true
		}
	}
	if byName["run"] != "X" || byName["flow.solve"] != "X" || byName["flow.simplex"] != "X" {
		t.Fatalf("missing complete events: %v", byName)
	}
	if byName["fallback"] != "i" {
		t.Fatalf("fallback event phase %q, want i", byName["fallback"])
	}
	if !sawPivots {
		t.Fatal("pivots counter not exported in args")
	}
}

// TestWriteMetrics: the Prometheus-style dump aggregates counters by
// (span, counter) across same-named spans.
func TestWriteMetrics(t *testing.T) {
	tr := New("run")
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 2; i++ {
		s, _ := StartSpan(ctx, "flow.simplex")
		s.Add("pivots", 10)
		s.Gauge("arcs", 33)
		s.End()
	}
	tr.Finish()

	var buf bytes.Buffer
	tr.Report().WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		`relatch_span_total{span="flow.simplex"} 2`,
		`relatch_counter_total{span="flow.simplex",counter="pivots"} 20`,
		`relatch_gauge{span="flow.simplex",gauge="arcs"} 33`,
		"# TYPE relatch_span_duration_seconds counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryFold: a folded tracer renders in the registry exactly as
// its report's WriteMetrics does, and a second fold adds to the totals
// rather than keeping the tree.
func TestRegistryFold(t *testing.T) {
	trace := func() *Tracer {
		tr := New("queue.job")
		s, _ := StartSpan(WithTracer(context.Background(), tr), "flow.simplex")
		s.Add("pivots", 10)
		s.Gauge("arcs", 33)
		s.End()
		return tr
	}
	reg := NewRegistry()
	var empty bytes.Buffer
	if err := reg.WriteMetrics(&empty); err != nil || empty.Len() != 0 {
		t.Fatalf("empty registry rendered %q (err %v)", empty.String(), err)
	}

	tr := trace()
	reg.Fold(tr)
	if end, _, _, _, _, _ := tr.Root().snapshot(); end.IsZero() {
		t.Fatal("Fold left the root open")
	}
	var want, got bytes.Buffer
	tr.Report().WriteMetrics(&want)
	if err := reg.WriteMetrics(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("folded registry renders\n%s\nwant the report's\n%s", got.String(), want.String())
	}

	reg.Fold(trace())
	got.Reset()
	if err := reg.WriteMetrics(&got); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`relatch_span_total{span="queue.job"} 2`,
		`relatch_span_total{span="flow.simplex"} 2`,
		`relatch_counter_total{span="flow.simplex",counter="pivots"} 20`,
		`relatch_gauge{span="flow.simplex",gauge="arcs"} 33`,
	} {
		if !strings.Contains(got.String(), line+"\n") {
			t.Fatalf("after two folds, metrics lack %q:\n%s", line, got.String())
		}
	}
	if err := ValidateMetrics(&got); err != nil {
		t.Fatal(err)
	}
	var nilReg *Registry
	nilReg.Fold(trace())
	reg.Fold(nil)
}

// TestConcurrentSpans: sibling spans recording in parallel must be safe
// (run under -race in make check).
func TestConcurrentSpans(t *testing.T) {
	tr := New("run")
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, sctx := StartSpan(ctx, "worker")
			for j := 0; j < 100; j++ {
				s.Add("ops", 1)
			}
			c, _ := StartSpan(sctx, "inner")
			c.End()
			s.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	if got := tr.Report().Sum("worker", "ops"); got != 800 {
		t.Fatalf("concurrent ops = %d, want 800", got)
	}
}

// TestLogHandler: the compact line format renders message, attrs,
// groups and quoting; level filtering works; DiscardLogger drops all.
func TestLogHandler(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo)
	log.Debug("hidden")
	log.Info("generated", "bench", "s1196", "gates", 529)
	log.With("c", 1.5).WithGroup("solver").Warn("fell back", "reason", "pivot limit")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug line not filtered:\n%s", out)
	}
	for _, want := range []string{
		"INFO generated bench=s1196 gates=529",
		"WARN fell back c=1.5",
		`solver.reason="pivot limit"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
	var dbuf bytes.Buffer
	d := DiscardLogger()
	d.Error("nope")
	if dbuf.Len() != 0 {
		t.Fatal("discard logger wrote output")
	}
	if d.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger enabled")
	}
}
