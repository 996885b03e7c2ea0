package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"relatch/internal/obs"
	"relatch/internal/queue"
)

// sseHeartbeat is the idle interval between `: heartbeat` comments on
// an events stream: a keepalive that stops proxies idling the
// connection out and bounds how long a handler lingers after its client
// vanished.
const sseHeartbeat = 5 * time.Second

// spanStage maps pipeline span names to the coarse job stage an SSE
// consumer sees. Only the spans that mark a stage transition appear
// here; other spans pass through silently.
var spanStage = map[string]string{
	"core.retime": "solving",
	"vlib.retime": "solving",
	"cert.run":    "certifying",
}

// progressCounters whitelists the solver counters streamed as progress
// events — the iteration-count signals the retiming literature treats
// as the first-class cost measure.
var progressCounters = map[string]bool{
	"pivots":           true,
	"augmenting_paths": true,
}

// sseEvent is the JSON payload of one SSE data: line.
type sseEvent struct {
	Stage   string `json:"stage,omitempty"`
	Span    string `json:"span,omitempty"`
	Counter string `json:"counter,omitempty"`
	Delta   int64  `json:"delta,omitempty"`
	AtNS    int64  `json:"at_ns,omitempty"`
}

// handleEvents streams a job's live stage transitions and solver
// progress as Server-Sent Events: `event: stage` for lifecycle edges
// (queued → leased → solving → certifying → done/dead), `event:
// progress` for whitelisted solver counters, `event: dropped` when the
// ring overwrote history, and a final `event: end` after a terminal
// stage. The handler replays whatever the ring retains (honouring
// Last-Event-ID), then follows live until the job ends, the client
// disconnects, or the stream closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.cfg.Durable.Queue().Get(id); !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("engine: no job %q", id))
		return
	}
	if s.cfg.Stream == nil {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("engine: event streaming disabled"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("engine: response writer cannot stream"))
		return
	}
	var after uint64
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		after, _ = strconv.ParseUint(lei, 10, 64)
	}
	sub, err := s.cfg.Stream.Subscribe(after)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// settled is the terminal stage the job had when the handler last
	// caught up with the ring ("" while it runs).
	settled := ""
	for {
		ev, err := nextEvent(r.Context(), sub, 0)
		if errors.Is(err, errIdle) {
			// Caught up. A settled job's terminal stage may never come: it
			// left the ring, or Last-Event-ID skipped past it. The queue
			// publishes each stage under the lock Get takes, so once Get
			// sees the job settled all its events are in the ring: drain
			// once more, then report the terminal stage.
			if settled != "" {
				writeSSE(w, fl, 0, "stage", sseEvent{Stage: settled})
				writeSSE(w, fl, 0, "end", sseEvent{Stage: settled})
				return
			}
			if st, done := s.terminalStage(id); done {
				settled = st
				continue
			}
			if ev, err = nextEvent(r.Context(), sub, sseHeartbeat); errors.Is(err, errIdle) {
				fmt.Fprint(w, ": heartbeat\n\n")
				fl.Flush()
				continue
			}
		}
		switch {
		case errors.Is(err, obs.ErrLagged):
			writeSSE(w, fl, 0, "dropped", sseEvent{})
			continue
		case err != nil:
			// Client gone or stream closed — either way the show is over.
			return
		}
		if ev.Scope != id {
			continue
		}
		name, kind, ok := translateEvent(ev)
		if !ok {
			continue
		}
		out := sseEvent{AtNS: ev.AtNS}
		switch kind {
		case "stage":
			out.Stage = name
			if ev.Kind == "span_start" {
				out.Span = ev.Name
			}
		case "progress":
			out.Counter = name
			out.Delta = ev.Value
		}
		writeSSE(w, fl, ev.Seq, kind, out)
		if kind == "stage" && (name == "done" || name == "dead") {
			writeSSE(w, fl, 0, "end", sseEvent{Stage: name})
			return
		}
	}
}

// errIdle reports that no stream event came within the wait while the
// client is still connected.
var errIdle = errors.New("no event within the wait")

// nextEvent returns the next stream event, waiting up to wait for one
// (0 = only what the ring already retains), and tells an idle wait
// (errIdle) from a real disconnect.
func nextEvent(parent context.Context, sub *obs.Subscription, wait time.Duration) (obs.StreamEvent, error) {
	ctx, cancel := context.WithTimeout(parent, wait)
	defer cancel()
	ev, err := sub.Next(ctx)
	if errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		return obs.StreamEvent{}, errIdle
	}
	return ev, err
}

// terminalStage reports whether the job has reached a terminal queue
// state, and which SSE stage name that maps to.
func (s *Server) terminalStage(id string) (string, bool) {
	j, ok := s.cfg.Durable.Queue().Get(id)
	if !ok {
		return "", false
	}
	switch j.State {
	case queue.StateDone:
		return "done", true
	case queue.StateDead:
		return "dead", true
	}
	return "", false
}

// feed returns the tracer hook of the pump's job id: it publishes into
// the stream, scoped to the job, only the span starts and counters the
// events route turns into frames. Nil without a stream.
func feed(stream *obs.Stream, id string) func(obs.StreamEvent) {
	if stream == nil {
		return nil
	}
	return func(ev obs.StreamEvent) {
		if _, _, ok := translateEvent(ev); ok {
			ev.Scope = id
			stream.Publish(ev)
		}
	}
}

// translateEvent maps a raw stream event to its SSE event kind and
// payload name; ok is false for events the job feed does not surface.
func translateEvent(ev obs.StreamEvent) (name, kind string, ok bool) {
	switch ev.Kind {
	case "stage":
		return ev.Name, "stage", true
	case "span_start":
		if st, ok := spanStage[ev.Name]; ok {
			return st, "stage", true
		}
	case "counter":
		if progressCounters[ev.Name] {
			return ev.Name, "progress", true
		}
	}
	return "", "", false
}

// writeSSE emits one SSE frame: optional id line, event line, one data
// line, blank separator, flush.
func writeSSE(w http.ResponseWriter, fl http.Flusher, seq uint64, event string, payload sseEvent) {
	if seq > 0 {
		fmt.Fprintf(w, "id: %d\n", seq)
	}
	data, _ := json.Marshal(payload)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}
