package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStreamDeliversInOrder(t *testing.T) {
	s := NewStream(16)
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 5; i++ {
		s.Publish(StreamEvent{Kind: "stage", Name: "queued", Scope: "j1"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.AtNS == 0 || ev.Scope != "j1" {
			t.Fatalf("event not stamped: %+v", ev)
		}
	}
}

func TestStreamDropOldest(t *testing.T) {
	s := NewStream(4)
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 10; i++ {
		s.Publish(StreamEvent{Kind: "event", Name: "e"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// The ring kept only the last 4; the first read reports the gap.
	if _, err := sub.Next(ctx); !errors.Is(err, ErrLagged) {
		t.Fatalf("want ErrLagged, got %v", err)
	}
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 7 {
		t.Fatalf("resumed at seq %d, want oldest retained (7)", ev.Seq)
	}
}

func TestStreamResumeAfterSeq(t *testing.T) {
	s := NewStream(16)
	for i := 0; i < 6; i++ {
		s.Publish(StreamEvent{Kind: "event", Name: "e"})
	}
	sub, err := s.Subscribe(3)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 4 {
		t.Fatalf("resume after 3 delivered seq %d, want 4", ev.Seq)
	}

	// A resume point that already fell off the ring reports the gap once.
	s2 := NewStream(2)
	for i := 0; i < 8; i++ {
		s2.Publish(StreamEvent{Kind: "event", Name: "e"})
	}
	sub2, err := s2.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if _, err := sub2.Next(ctx); !errors.Is(err, ErrLagged) {
		t.Fatalf("stale resume: want ErrLagged, got %v", err)
	}
	if ev, err := sub2.Next(ctx); err != nil || ev.Seq != 7 {
		t.Fatalf("stale resume continued at (%v, %v), want seq 7", ev.Seq, err)
	}
}

func TestStreamCloseSemantics(t *testing.T) {
	s := NewStream(8)
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(StreamEvent{Kind: "event", Name: "before"})
	s.Close()
	s.Close() // idempotent
	s.Publish(StreamEvent{Kind: "event", Name: "after"})

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	// Retained events drain first, then ErrClosed.
	if ev, err := sub.Next(ctx); err != nil || ev.Name != "before" {
		t.Fatalf("drain: got (%v, %v)", ev.Name, err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: want ErrClosed, got %v", err)
	}
	if _, err := s.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe on closed: want ErrClosed, got %v", err)
	}
	sub.Close()
	if n := s.Subscribers(); n != 0 {
		t.Fatalf("Subscribers = %d after close, want 0", n)
	}
}

func TestStreamSubscriptionClose(t *testing.T) {
	s := NewStream(8)
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Subscribers() != 1 {
		t.Fatal("subscriber not registered")
	}
	sub.Close()
	sub.Close() // idempotent
	if s.Subscribers() != 0 {
		t.Fatal("subscriber leaked after Close")
	}
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next on closed subscription: want ErrClosed, got %v", err)
	}
}

func TestStreamNextHonoursContext(t *testing.T) {
	s := NewStream(8)
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestStreamPublishNeverBlocks pins the core contract: a subscriber
// that never reads must not stall publishers.
func TestStreamPublishNeverBlocks(t *testing.T) {
	s := NewStream(4)
	sub, err := s.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			s.Publish(StreamEvent{Kind: "event", Name: "burst"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on an idle subscriber")
	}
}

func TestStreamNilSafe(t *testing.T) {
	var s *Stream
	s.Publish(StreamEvent{})
	s.Close()
	if s.Subscribers() != 0 {
		t.Fatal("nil Subscribers != 0")
	}
	if _, err := s.Subscribe(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("nil Subscribe: want ErrClosed, got %v", err)
	}
	var sub *Subscription
	sub.Close()
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("nil Next: want ErrClosed, got %v", err)
	}
}

// TestTracerStreamSpanFeed checks the hook fixed at construction, the
// tracer's only bridge to a stream: it sees each child span start and
// counter add, in order, and nothing else — not the root's start, span
// ends, gauges or instant events.
func TestTracerStreamSpanFeed(t *testing.T) {
	stream := NewStream(64)
	sub, err := stream.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	tr := NewWithHook("queue.job", func(ev StreamEvent) {
		ev.Scope = "job-1"
		stream.Publish(ev)
	})

	ctx := WithTracer(context.Background(), tr)
	child, _ := StartSpan(ctx, "core.retime")
	child.Add("pivots", 42)
	child.Gauge("nodes", 7)
	child.Event("fallback")
	child.End()
	tr.Finish()
	stream.Close()

	type step struct {
		kind, name, scope string
		value             int64
	}
	want := []step{
		{"span_start", "core.retime", "job-1", 0},
		{"counter", "pivots", "job-1", 42},
	}
	var got []step
	for {
		ev, err := sub.Next(context.Background())
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, step{ev.Kind, ev.Name, ev.Scope, ev.Value})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("hook published %v, want %v", got, want)
	}
}

// TestStreamConcurrentPublishSubscribe runs publishers against a
// reading subscriber and a churning one under the race detector.
func TestStreamConcurrentPublishSubscribe(t *testing.T) {
	s := NewStream(64)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		sub, err := s.Subscribe(0)
		if err != nil {
			return
		}
		defer sub.Close()
		for {
			if _, err := sub.Next(ctx); err != nil && !errors.Is(err, ErrLagged) {
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for p := 0; p < 4; p++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				s.Publish(StreamEvent{Kind: "event", Name: "x"})
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 100; i++ {
			sub, err := s.Subscribe(0)
			if err != nil {
				return
			}
			sub.Close()
		}
	}()
	writers.Wait()
	s.Close() // unblocks the reader with ErrClosed
	readers.Wait()
}
