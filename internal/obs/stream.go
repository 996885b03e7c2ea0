package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Sentinel errors for the live event stream.
var (
	// ErrClosed rejects operations on a closed stream, subscription or
	// registry.
	ErrClosed = errors.New("closed")
	// ErrLagged tells a slow subscriber that the ring overwrote events
	// it had not consumed yet. The subscription stays usable: the next
	// read resumes at the oldest retained event.
	ErrLagged = errors.New("subscriber lagged")
)

// DefaultStreamCapacity is the ring size used when NewStream gets a
// non-positive capacity.
const DefaultStreamCapacity = 4096

// StreamEvent is one live telemetry event: a span start or a counter
// increment (what a tracer hook sees), or an explicit lifecycle stage
// published by a state machine (the queue). Scope correlates events to
// a unit of work — the serving stack sets it to the durable job ID.
type StreamEvent struct {
	// Seq is the stream-assigned, strictly increasing sequence number;
	// it doubles as the SSE event id for last-event-id resume.
	Seq uint64 `json:"seq"`
	// AtNS is the publish time in Unix nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Scope correlates the event to a unit of work ("" = process-wide).
	Scope string `json:"scope,omitempty"`
	// Kind is one of "stage", "span_start", "counter".
	Kind string `json:"kind"`
	// Name is the stage, span or counter name.
	Name string `json:"name"`
	// Value carries the counter delta.
	Value int64 `json:"value,omitempty"`
}

// Stream is a bounded broadcast ring of StreamEvents. Publish never
// blocks: when the ring is full the oldest event is overwritten
// (drop-oldest) and a lagging subscriber learns about the gap through
// ErrLagged on its next read — the hot path must never wait on a slow
// SSE client. All methods are nil-receiver no-ops or safe defaults.
type Stream struct {
	capacity int

	mu      sync.Mutex
	ring    []StreamEvent   // guarded by mu (circular buffer)
	start   int             // guarded by mu (index of oldest retained event)
	count   int             // guarded by mu (retained events)
	nextSeq uint64          // guarded by mu (seq of the newest published event)
	subs    []*Subscription // guarded by mu
	closed  bool            // guarded by mu
}

// NewStream builds a stream retaining up to capacity events
// (≤ 0 means DefaultStreamCapacity).
func NewStream(capacity int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	return &Stream{capacity: capacity, ring: make([]StreamEvent, capacity)}
}

// Publish stamps the event with the next sequence number and the
// current time, appends it (dropping the oldest when full) and nudges
// every subscriber. It never blocks and is a no-op on a nil or closed
// stream.
func (s *Stream) Publish(ev StreamEvent) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.nextSeq++
	ev.Seq = s.nextSeq
	ev.AtNS = now
	if s.count < s.capacity {
		s.ring[(s.start+s.count)%s.capacity] = ev
		s.count++
	} else {
		s.ring[s.start] = ev
		s.start = (s.start + 1) % s.capacity
	}
	for _, sub := range s.subs {
		// Non-blocking nudge: the 1-slot buffer coalesces bursts, and a
		// subscriber that already has a pending nudge needs no more.
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

// Close stops the stream: later Publishes drop, blocked subscribers
// drain what the ring retains and then get ErrClosed. Idempotent and
// nil-safe.
func (s *Stream) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, sub := range s.subs {
			select {
			case sub.notify <- struct{}{}:
			default:
			}
		}
	}
	s.mu.Unlock()
}

// Subscribers returns how many subscriptions are currently attached —
// the leak signal the fault harness checks after client disconnects.
func (s *Stream) Subscribers() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Subscribe attaches a cursor after sequence afterSeq (0 = from the
// oldest retained event). A resume point that has already fallen off
// the ring is clamped forward and surfaces once as ErrLagged on the
// first read, so a reconnecting client knows its history has a gap.
func (s *Stream) Subscribe(afterSeq uint64) (*Subscription, error) {
	if s == nil {
		return nil, fmt.Errorf("obs: subscribe: no stream: %w", ErrClosed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("obs: subscribe: %w", ErrClosed)
	}
	sub := &Subscription{stream: s, notify: make(chan struct{}, 1)}
	sub.attachLocked(afterSeq)
	return sub, nil
}

// attachLocked positions the fresh cursor after afterSeq — clamped into
// the retained window, recording any gap — and registers it. Caller
// holds stream.mu.
func (sub *Subscription) attachLocked(afterSeq uint64) {
	s := sub.stream
	oldest := s.oldestSeqLocked()
	sub.next = afterSeq + 1
	if sub.next < oldest {
		if afterSeq > 0 {
			sub.lagged = oldest - sub.next
		}
		sub.next = oldest
	}
	if sub.next > s.nextSeq+1 {
		sub.next = s.nextSeq + 1
	}
	s.subs = append(s.subs, sub)
}

// oldestSeqLocked returns the sequence number of the oldest retained
// event (nextSeq+1 when the ring is empty).
func (s *Stream) oldestSeqLocked() uint64 {
	if s.count == 0 {
		return s.nextSeq + 1
	}
	return s.nextSeq - uint64(s.count) + 1
}

// Subscription is one consumer cursor over a Stream. Close detaches it;
// a subscription abandoned by a disconnected client must be Closed or
// it counts as a leak (Stream.Subscribers).
type Subscription struct {
	stream *Stream
	notify chan struct{}

	next   uint64 // guarded by stream.mu (next seq to deliver)
	lagged uint64 // guarded by stream.mu (events lost before first read)
	closed bool   // guarded by stream.mu
}

// Close detaches the subscription from its stream. Idempotent.
func (sub *Subscription) Close() {
	if sub == nil {
		return
	}
	s := sub.stream
	s.mu.Lock()
	sub.detachLocked()
	s.mu.Unlock()
}

// detachLocked marks the subscription closed and removes it from the
// stream's roster. Caller holds stream.mu; idempotent.
func (sub *Subscription) detachLocked() {
	if sub.closed {
		return
	}
	sub.closed = true
	s := sub.stream
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
}

// Next returns the next event, blocking until one is published, the
// context is cancelled (wrapped ctx.Err()), or the stream/subscription
// closes (wrapped ErrClosed). When the ring overwrote unread events the
// call reports the gap once as ErrLagged — with the drop count — and
// subsequent reads continue from the oldest retained event.
func (sub *Subscription) Next(ctx context.Context) (StreamEvent, error) {
	if sub == nil {
		return StreamEvent{}, fmt.Errorf("obs: next: no subscription: %w", ErrClosed)
	}
	s := sub.stream
	for {
		s.mu.Lock()
		ev, wait, err := sub.pollLocked()
		s.mu.Unlock()
		if !wait {
			return ev, err
		}
		select {
		case <-ctx.Done():
			return StreamEvent{}, fmt.Errorf("obs: next: %w", ctx.Err())
		case <-sub.notify:
		}
	}
}

// pollLocked advances the cursor one step: a deliverable event, a
// terminal error (closed / lag gap), or wait=true when the cursor is
// caught up and the caller should block for a nudge. Caller holds
// stream.mu.
func (sub *Subscription) pollLocked() (StreamEvent, bool, error) {
	s := sub.stream
	if sub.closed {
		return StreamEvent{}, false, fmt.Errorf("obs: next: subscription %w", ErrClosed)
	}
	if sub.lagged > 0 {
		n := sub.lagged
		sub.lagged = 0
		return StreamEvent{}, false, fmt.Errorf("obs: %w: %d events dropped (ring capacity %d)", ErrLagged, n, s.capacity)
	}
	oldest := s.oldestSeqLocked()
	if sub.next < oldest {
		n := oldest - sub.next
		sub.next = oldest
		return StreamEvent{}, false, fmt.Errorf("obs: %w: %d events dropped (ring capacity %d)", ErrLagged, n, s.capacity)
	}
	if s.count > 0 && sub.next <= s.nextSeq {
		ev := s.ring[(s.start+int(sub.next-oldest))%s.capacity]
		sub.next++
		return ev, false, nil
	}
	if s.closed {
		return StreamEvent{}, false, fmt.Errorf("obs: next: stream %w", ErrClosed)
	}
	return StreamEvent{}, true, nil
}
