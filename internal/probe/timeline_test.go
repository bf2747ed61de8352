package probe

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// decodeTimeline parses a trace document back into its event list.
func decodeTimeline(t testing.TB, data []byte) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, data)
	}
	return doc.TraceEvents
}

func TestWriteTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := decodeTimeline(t, buf.Bytes())
	// Only the two process_name metadata records.
	if len(evs) != 2 || evs[0].Ph != "M" || evs[1].Ph != "M" {
		t.Fatalf("empty timeline events: %+v", evs)
	}
}

func TestWriteTimelineSpansAndCounters(t *testing.T) {
	var events []Event
	p := recorder(Config{SampleEvery: 1}, &events)
	p.JobSubmit(0, 7, "sort", 2, 1)
	p.Sample(10*time.Second, 3, "atom", 0.5, 100, 1, 1)
	p.Complete(30*time.Second, 7, 0, 3, 2, 40, 44, 20)
	p.ControlTick(60*time.Second, 500, 1)
	p.MachineState(70*time.Second, 3, "sleep")
	p.JobDone(80*time.Second, 7, false, 0, 0)

	var buf bytes.Buffer
	if err := WriteTimeline(&buf, events); err != nil {
		t.Fatal(err)
	}
	evs := decodeTimeline(t, buf.Bytes())

	var taskSpan, jobSpan, tick, counter, instant, threadName *traceEvent
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Ph == "X" && ev.Pid == pidCluster:
			taskSpan = ev
		case ev.Ph == "X" && ev.Pid == pidJobs:
			jobSpan = ev
		case ev.Ph == "i" && ev.Name == "control tick":
			tick = ev
		case ev.Ph == "C" && ev.Name == "m3 util":
			counter = ev
		case ev.Ph == "i" && ev.Name == "sleep":
			instant = ev
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == pidCluster:
			threadName = ev
		}
	}
	if taskSpan == nil {
		t.Fatal("no task span emitted")
	}
	// Complete at t=30 s with dur=20 s → span [10 s, 30 s] on machine 3.
	if taskSpan.Ts != micros(10*time.Second) || taskSpan.Dur != micros(20*time.Second) || taskSpan.Tid != 3 {
		t.Errorf("task span ts=%v dur=%v tid=%d", taskSpan.Ts, taskSpan.Dur, taskSpan.Tid)
	}
	if taskSpan.Name != "j7/reduce0" {
		t.Errorf("task span name %q", taskSpan.Name)
	}
	if jobSpan == nil || jobSpan.Ts != 0 || jobSpan.Dur != micros(80*time.Second) || jobSpan.Tid != 7 {
		t.Errorf("job span %+v", jobSpan)
	}
	if tick == nil || tick.Scope != "p" {
		t.Errorf("control tick instant %+v", tick)
	}
	if counter == nil || counter.Args["util"] != 0.5 {
		t.Errorf("util counter %+v", counter)
	}
	if instant == nil || instant.Tid != 3 || instant.Scope != "t" {
		t.Errorf("machine-state instant %+v", instant)
	}
	if threadName == nil || threadName.Args["name"] != "m3 atom" {
		t.Errorf("thread name %+v", threadName)
	}
}

// TestWriteTimelineEventCategories checks that every non-metadata trace
// record carries its originating probe kind as the Chrome trace "cat"
// field, and that metadata records carry none.
func TestWriteTimelineEventCategories(t *testing.T) {
	var events []Event
	p := recorder(Config{SampleEvery: 1}, &events)
	p.JobSubmit(0, 7, "sort", 2, 1)
	p.Sample(10*time.Second, 3, "atom", 0.5, 100, 1, 1)
	p.Complete(30*time.Second, 7, 0, 3, 2, 40, 44, 20)
	p.ControlTick(60*time.Second, 500, 1)
	p.MachineState(70*time.Second, 3, "sleep")
	p.JobDone(80*time.Second, 7, false, 0, 0)

	var buf bytes.Buffer
	if err := WriteTimeline(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"j7/reduce0":   KindComplete.String(),
		"control tick": KindControlTick.String(),
		"fleet energy": KindControlTick.String(),
		"tasks done":   KindControlTick.String(),
		"m3 util":      KindSample.String(),
		"sleep":        KindMachineState.String(),
		"job":          KindJobDone.String(),
	}
	seen := map[string]bool{}
	for _, ev := range decodeTimeline(t, buf.Bytes()) {
		if ev.Ph == "M" {
			if ev.Cat != "" {
				t.Errorf("metadata record %q has category %q, want none", ev.Name, ev.Cat)
			}
			continue
		}
		cat, ok := want[ev.Name]
		if !ok {
			t.Errorf("unexpected trace record %q", ev.Name)
			continue
		}
		if ev.Cat != cat {
			t.Errorf("record %q category %q, want %q", ev.Name, ev.Cat, cat)
		}
		seen[ev.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("no trace record %q emitted", name)
		}
	}
}

func TestWriteTimelineJobDoneWithoutSubmit(t *testing.T) {
	// No submit event in the list: completion must degrade to an instant.
	evs := []Event{{At: time.Minute, Kind: KindJobDone, JobID: 4, Flag: true}}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, evs); err != nil {
		t.Fatal(err)
	}
	for _, ev := range decodeTimeline(t, buf.Bytes()) {
		if ev.Pid == pidJobs && ev.Ph != "M" {
			if ev.Ph != "i" || ev.Name != "job (failed)" {
				t.Errorf("orphan job done rendered as %+v", ev)
			}
			return
		}
	}
	t.Fatal("orphan job done not rendered")
}

func TestWriteTimelineClampsNegativeStart(t *testing.T) {
	// Duration longer than the timestamp: span start clamps to zero.
	evs := []Event{{At: 5 * time.Second, Kind: KindComplete, JobID: 1, TaskKind: 1, C: 10}}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, evs); err != nil {
		t.Fatal(err)
	}
	for _, ev := range decodeTimeline(t, buf.Bytes()) {
		if ev.Ph == "X" {
			if ev.Ts != 0 || ev.Dur != micros(5*time.Second) {
				t.Errorf("clamped span ts=%v dur=%v", ev.Ts, ev.Dur)
			}
			return
		}
	}
	t.Fatal("no span emitted")
}

func TestWriteTimelineWriterError(t *testing.T) {
	err := WriteTimeline(&failWriter{n: 0}, nil)
	if err == nil || !strings.Contains(err.Error(), "probe: timeline:") {
		t.Fatalf("want wrapped writer error, got %v", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Errorf("should preserve the cause: %v", err)
	}
}

// limitWriter fails once more than n bytes have been written, so errors
// surface mid-document (after the prefix succeeded).
type limitWriter struct{ n int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink closed")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteTimelineMidDocumentError(t *testing.T) {
	events := make([]Event, 256)
	for i := range events {
		events[i] = Event{At: time.Duration(i) * time.Second, Kind: KindControlTick, A: float64(i)}
	}
	err := WriteTimeline(&limitWriter{n: 64}, events)
	if err == nil || !strings.Contains(err.Error(), "probe: timeline:") {
		t.Fatalf("want wrapped mid-document error, got %v", err)
	}
}

func TestSecsToDuration(t *testing.T) {
	cases := []struct {
		in   float64
		want time.Duration
	}{
		{1.5, 1500 * time.Millisecond},
		{0, 0},
		{-3, 0},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := secsToDuration(c.in); got != c.want {
			t.Errorf("secsToDuration(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := secsToDuration(math.Inf(1)); got <= 0 {
		t.Errorf("secsToDuration(+Inf) = %v, want positive capped value", got)
	}
	if got := secsToDuration(1e300); got <= 0 {
		t.Errorf("secsToDuration(1e300) = %v, want positive capped value", got)
	}
}

// FuzzTimelineJSON feeds hostile label strings, timestamps and float
// payloads through every label-carrying event kind and asserts the
// emitted document is always syntactically valid JSON — quotes,
// backslashes, control characters, broken UTF-8, NaN durations and
// negative timestamps included.
func FuzzTimelineJSON(f *testing.F) {
	f.Add("sort", int64(30_000_000_000), 12.5, int32(3))
	f.Add(`"],"pwn":[{"`, int64(-5), math.NaN(), int32(-1))
	f.Add("a\x00b\\\n\u2028", int64(1<<55), math.Inf(1), int32(1<<30))
	f.Add("\xff\xfe broken utf8", int64(0), -1e308, int32(0))
	f.Fuzz(func(t *testing.T, label string, atNanos int64, x float64, id int32) {
		at := time.Duration(atNanos)
		events := []Event{
			{At: at, Kind: KindSample, MachineID: id, Label: label, A: x, B: x},
			{At: at, Kind: KindComplete, JobID: id, Index: id, MachineID: id, TaskKind: 1, A: x, B: x, C: x},
			{At: at, Kind: KindMachineState, MachineID: id, Label: label},
			{At: at, Kind: KindJobSubmit, JobID: id, Label: label},
			{At: at, Kind: KindJobDone, JobID: id, Flag: x < 0},
			{At: at, Kind: KindControlTick, A: x, N: id},
		}
		var buf bytes.Buffer
		if err := WriteTimeline(&buf, events); err != nil {
			t.Fatalf("WriteTimeline: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("invalid JSON for label %q:\n%s", label, buf.Bytes())
		}
	})
}
