package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestExporterConcurrencyStress hammers one tracer from writer
// goroutines (span trees, counters, events — with a hook publishing
// span starts and counters into a live stream) while reader goroutines
// concurrently render every export format, registry histograms absorb
// observations and per-round tracers fold into the registry. It asserts nothing beyond "no race, no panic,
// no torn render": the point is that `go test -race ./internal/obs`
// proves the telemetry plane safe under full read/write concurrency.
func TestExporterConcurrencyStress(t *testing.T) {
	stream := NewStream(128)
	tr := NewWithHook("stress", stream.Publish)
	reg := NewRegistry()
	ctx := WithTracer(context.Background(), tr)

	const writers, readers, rounds = 4, 3, 200
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			h := reg.Histogram(fmt.Sprintf(`stress_seconds{writer="%d"}`, w))
			for i := 0; i < rounds; i++ {
				sp, sctx := StartSpan(ctx, "stage")
				child, _ := StartSpan(sctx, "solve")
				child.Add("pivots", int64(i))
				child.Gauge("nodes", int64(i))
				child.Attr("method", "simplex")
				child.Event("tick")
				child.End()
				sp.End()
				job := NewWithHook("job", stream.Publish)
				jsp, _ := StartSpan(WithTracer(context.Background(), job), "solve")
				jsp.Add("pivots", int64(i))
				jsp.End()
				reg.Fold(job)
				h.Observe(time.Duration(i) * time.Microsecond)
				reg.Add("stress_total", 1)
				reg.Set("stress_gauge", int64(i))
			}
		}(w)
	}

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := tr.Report()
				rep.WriteText(io.Discard)
				if err := rep.WriteJSON(io.Discard); err != nil {
					t.Error(err)
					return
				}
				if err := rep.WriteChromeTrace(io.Discard); err != nil {
					t.Error(err)
					return
				}
				rep.WriteMetrics(io.Discard)
				if err := reg.WriteMetrics(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A draining subscriber keeps the stream's consumer side exercised;
	// it exits on ErrClosed when the stream closes below.
	sub, err := stream.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		defer sub.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for {
			if _, err := sub.Next(drainCtx); err != nil && !errors.Is(err, ErrLagged) {
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		writerWG.Wait()
		close(stop)
		stream.Close()
		readerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress goroutines did not finish")
	}
}
