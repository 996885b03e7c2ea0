package engine

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relatch/internal/obs"
	"relatch/internal/queue"
)

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSE parses frames off an event-stream body until the `end` event,
// maxFrames, or a read error (connection close).
func readSSE(t *testing.T, body *bufio.Reader, maxFrames int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for len(frames) < maxFrames {
		line, err := body.ReadString('\n')
		if err != nil {
			return frames
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				if cur.event == "end" {
					return frames
				}
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

// stageSequence extracts the ordered stage values from stage frames.
func stageSequence(frames []sseFrame) []string {
	var stages []string
	for _, f := range frames {
		if f.event != "stage" {
			continue
		}
		// Cheap extraction — the payload is flat JSON.
		if i := strings.Index(f.data, `"stage":"`); i >= 0 {
			rest := f.data[i+len(`"stage":"`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				// Collapse consecutive duplicates (retry replays).
				st := rest[:j]
				if len(stages) == 0 || stages[len(stages)-1] != st {
					stages = append(stages, st)
				}
			}
		}
	}
	return stages
}

// TestServerEventsStreamFullLifecycle runs a real solve through the
// durable stack and asserts the SSE feed reports the documented stage
// machine — queued → leased → solving → certifying → done — plus at
// least one pivot-count progress event, a final `end` frame, and
// resumable event ids.
func TestServerEventsStreamFullLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, nil)

	js, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}

	eresp, err := http.Get(ts.URL + "/jobs/" + js.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("events returned %d", eresp.StatusCode)
	}
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}

	frames := readSSE(t, bufio.NewReader(eresp.Body), 500)
	if len(frames) == 0 {
		t.Fatal("no SSE frames received")
	}
	stages := stageSequence(frames)
	want := []string{"queued", "leased", "solving", "certifying", "done"}
	if strings.Join(stages, " ") != strings.Join(want, " ") {
		t.Fatalf("stage sequence = %v, want %v", stages, want)
	}
	var pivots, end bool
	var lastID string
	for _, f := range frames {
		if f.event == "progress" && strings.Contains(f.data, `"counter":"pivots"`) {
			pivots = true
		}
		if f.event == "end" {
			end = true
		}
		if f.id != "" {
			lastID = f.id
		}
	}
	if !pivots {
		t.Error("no pivots progress event on the stream")
	}
	if !end {
		t.Error("stream did not finish with an end event")
	}
	if lastID == "" {
		t.Fatal("no frame carried an SSE id")
	}

	// Last-Event-ID resume: reconnecting with the final id must replay
	// nothing of the consumed history, only report the (terminal) job.
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+js.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", lastID)
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	rframes := readSSE(t, bufio.NewReader(rresp.Body), 50)
	for _, f := range rframes {
		if f.event == "stage" && !strings.Contains(f.data, `"stage":"done"`) {
			t.Fatalf("resume replayed consumed stage frame: %+v", f)
		}
	}
	found := false
	for _, f := range rframes {
		if f.event == "end" {
			found = true
		}
	}
	if !found {
		t.Fatalf("resumed stream never ended: %+v", rframes)
	}
}

// TestServerEventsRoutes checks the non-happy paths: unknown job id is
// a 404, and a server without a stream answers 501.
func TestServerEventsRoutes(t *testing.T) {
	ts, st := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events returned %d, want 404", resp.StatusCode)
	}

	srv, err := NewServer(ServerConfig{Durable: st.d})
	if err != nil {
		t.Fatal(err)
	}
	js, presp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", presp.StatusCode)
	}
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	resp2, err := http.Get(ts2.URL + "/jobs/" + js.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Fatalf("streamless events returned %d, want 501", resp2.StatusCode)
	}
}

// TestServerEventsSubscriberCleanup proves a client disconnect releases
// the subscription promptly (no leak on the shared stream).
func TestServerEventsSubscriberCleanup(t *testing.T) {
	ts, st := newTestServer(t, nil)
	js, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	pollDone(t, ts, js.ID)

	eresp, err := http.Get(ts.URL + "/jobs/" + js.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame so the handler is live, then slam the connection.
	bufio.NewReader(eresp.Body).ReadString('\n')
	eresp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for st.stream.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber leaked after disconnect: %d attached", st.stream.Subscribers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerEventsEndAtOnceForSettledJob follows a done job whose
// terminal stage the stream will never deliver — a Last-Event-ID resume
// past its last frame, and a job whose events left the ring — and
// requires the end frame at once, not at the next keepalive heartbeat.
func TestServerEventsEndAtOnceForSettledJob(t *testing.T) {
	ts, st := newTestServer(t, nil)
	js, resp := postJob(t, ts, JobRequest{Verilog: testSource, Approach: "grar"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	pollDone(t, ts, js.ID)

	client := &http.Client{Timeout: 10 * time.Second}
	follow := func(what, lastEventID string) []sseFrame {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+js.ID+"/events", nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		start := time.Now()
		eresp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer eresp.Body.Close()
		frames := readSSE(t, bufio.NewReader(eresp.Body), 500)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: the stream took %v to end, want under 1s", what, took)
		}
		if n := len(frames); n == 0 || frames[n-1].event != "end" || !strings.Contains(frames[n-1].data, `"stage":"done"`) {
			t.Fatalf("%s: stream did not end with a done end frame: %+v", what, frames)
		}
		return frames
	}

	lastID := ""
	for _, f := range follow("replay", "") {
		if f.id != "" {
			lastID = f.id
		}
	}
	follow("resume past the last frame", lastID)

	for i := 0; i < 300; i++ {
		st.stream.Publish(obs.StreamEvent{Kind: "stage", Scope: "other", Name: "queued"})
	}
	follow("events gone from the ring", "")
}

// TestStreamCarriesOnlyFeedEvents runs one s1196 G-RAR and one s1196
// NVL job through the stack and counts the stream events scoped to
// each: the ring holds only what the SSE feed turns into frames —
// queued, leased, solving, pivots, certifying and done.
func TestStreamCarriesOnlyFeedEvents(t *testing.T) {
	st := newTestStack(t, nil)
	var ids []string
	for _, ap := range []string{"grar", "nvl"} {
		j, err := st.d.Enqueue(JobRequest{Bench: "s1196", Approach: ap}, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if j := waitSettled(t, st.q, id); j.State != queue.StateDone {
			t.Fatalf("job %s ended %s", id, j.State)
		}
	}

	sub, err := st.stream.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	byJob := map[string][]string{}
	for {
		ev, err := nextEvent(context.Background(), sub, 0)
		if errors.Is(err, errIdle) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		byJob[ev.Scope] = append(byJob[ev.Scope], ev.Kind+" "+ev.Name)
	}
	for _, id := range ids {
		evs := strings.Join(byJob[id], ", ")
		if n := len(byJob[id]); n > 6 {
			t.Errorf("job %s put %d events on the stream, want at most 6: %s", id, n, evs)
		}
		for _, want := range []string{"stage queued", "span_start cert.run", "counter pivots", "stage done"} {
			if !strings.Contains(evs, want) {
				t.Errorf("job %s's stream events lack %q: %s", id, want, evs)
			}
		}
	}
}
