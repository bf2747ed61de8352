package probe

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustProbe(t testing.TB, cfg Config) *Probe {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// jsonLines is the JSON Lines export eantsim's trace experiment builds as
// a probe sink: one encoded line per event, the first error kept and every
// later event dropped.
type jsonLines struct {
	enc *json.Encoder
	err error
}

func newJSONLines(w io.Writer) *jsonLines { return &jsonLines{enc: json.NewEncoder(w)} }

func (s *jsonLines) sink(ev Event) {
	if s.err == nil {
		s.err = s.enc.Encode(ev)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{RingSize: -1}); err == nil {
		t.Error("negative ring size should fail")
	}
	if _, err := New(Config{EnergyBounds: []float64{2, 1}}); err == nil {
		t.Error("descending energy bounds should fail")
	}
	if _, err := New(Config{WaitBounds: []float64{}}); err == nil {
		t.Error("empty (non-nil) wait bounds should fail")
	}
	if _, err := New(Config{GapBounds: []float64{1, 1}}); err == nil {
		t.Error("zero-width gap bucket should fail")
	}
	p := mustProbe(t, Config{})
	if cap(p.ring) != DefaultRingSize {
		t.Errorf("default ring cap = %d, want %d", cap(p.ring), DefaultRingSize)
	}
}

func TestNilProbeIsNoOp(t *testing.T) {
	var p *Probe
	if p.Enabled() || p.TrailsEnabled() {
		t.Error("nil probe should be disabled")
	}
	// Every recording method must tolerate the nil receiver.
	p.Offer(0, 0, 0, 0)
	p.Draw(0, 0, 0, 0, 0, 0, false)
	p.Assign(0, 0, 0, 0, 0, "", false, 0, 0)
	p.Complete(0, 0, 0, 0, 0, 0, 0, 0)
	p.ControlTick(0, 0, 0)
	p.TrailRow(0, 0, 0, "", nil)
	p.MachineState(0, 0, "")
	p.JobSubmit(0, 0, "", 0, 0)
	p.JobDone(0, 0, false, 0, 0)
	p.Sample(0, 0, "", 0, 0, 0, 0)
	if p.ShouldSample() {
		t.Error("nil probe should never sample")
	}
	if p.Recorded() != 0 || p.Dropped() != 0 || p.Events() != nil {
		t.Error("nil probe accessors should return zero values")
	}
	r := p.Report()
	if r.Events != 0 || r.TaskEnergyJ != nil {
		t.Error("nil probe Report should be empty")
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	p := mustProbe(t, Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		p.ControlTick(time.Duration(i)*time.Second, float64(i), i)
	}
	if p.Recorded() != 10 {
		t.Errorf("Recorded = %d, want 10", p.Recorded())
	}
	if p.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", p.Dropped())
	}
	evs := p.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	// Oldest retained first, strictly increasing sequence.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestEventsNoWrap(t *testing.T) {
	p := mustProbe(t, Config{RingSize: 8})
	p.JobSubmit(0, 1, "sort", 4, 2)
	p.JobDone(time.Minute, 1, false, 0, 0)
	if p.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", p.Dropped())
	}
	evs := p.Events()
	if len(evs) != 2 || evs[0].Kind != KindJobSubmit || evs[1].Kind != KindJobDone {
		t.Fatalf("unexpected events %+v", evs)
	}
	// Events returns a copy: mutating it must not affect the probe.
	evs[0].JobID = 99
	if p.Events()[0].JobID != 1 {
		t.Error("Events must return a copy")
	}
}

func TestEventsExactlyFull(t *testing.T) {
	p := mustProbe(t, Config{RingSize: 3})
	for i := 0; i < 3; i++ {
		p.ControlTick(time.Duration(i), 0, i)
	}
	evs := p.Events()
	if len(evs) != 3 || p.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", len(evs), p.Dropped())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d Seq = %d", i, ev.Seq)
		}
	}
}

func TestOfferGapHistogram(t *testing.T) {
	p := mustProbe(t, Config{})
	p.Offer(10*time.Second, 2, 0, 5)
	p.Offer(13*time.Second, 2, 0, 4) // 3 s gap on machine 2
	p.Offer(20*time.Second, 0, 1, 1) // first offer on machine 0: no gap
	r := p.Report()
	if r.OfferGapS.Count != 1 {
		t.Fatalf("gap count = %d, want 1", r.OfferGapS.Count)
	}
	if r.OfferGapS.Min != 3 || r.OfferGapS.Max != 3 {
		t.Errorf("gap extremes (%v, %v), want (3, 3)", r.OfferGapS.Min, r.OfferGapS.Max)
	}
}

func TestAssignAndCompleteFeedHistograms(t *testing.T) {
	p := mustProbe(t, Config{})
	p.Assign(time.Minute, 1, 0, 2, 0, "sort", true, 30, 7.5)
	p.Complete(2*time.Minute, 1, 0, 2, 0, 100, 120, 60)
	r := p.Report()
	if r.QueueWaitS.Count != 1 || r.QueueWaitS.Min != 7.5 {
		t.Errorf("wait histogram: count=%d min=%v", r.QueueWaitS.Count, r.QueueWaitS.Min)
	}
	if r.TaskEnergyJ.Count != 1 || r.TaskEnergyJ.Min != 120 {
		t.Errorf("energy histogram: count=%d min=%v", r.TaskEnergyJ.Count, r.TaskEnergyJ.Min)
	}
}

func TestShouldSampleCadence(t *testing.T) {
	p := mustProbe(t, Config{SampleEvery: 3})
	var fired []int
	for i := 1; i <= 9; i++ {
		if p.ShouldSample() {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	off := mustProbe(t, Config{})
	if off.ShouldSample() {
		t.Error("SampleEvery=0 should never sample")
	}
}

func TestTrailRowCopies(t *testing.T) {
	p := mustProbe(t, Config{Trails: true})
	if !p.TrailsEnabled() {
		t.Fatal("trails should be enabled")
	}
	row := []float64{1, 2, 3}
	p.TrailRow(0, 1, 0, "sort", row)
	row[0] = 99
	if got := p.Events()[0].Row[0]; got != 1 {
		t.Errorf("TrailRow must copy the slice; got %v", got)
	}
}

// TestSinkSeesEveryEvent: the sink receives every event at record time,
// in sequence order, however small the ring; a trail_row event's Row stays
// the sink's after the caller reuses its slice and the ring drops the
// event.
func TestSinkSeesEveryEvent(t *testing.T) {
	var got []Event
	p := mustProbe(t, Config{RingSize: 2, Trails: true, Sink: func(ev Event) { got = append(got, ev) }})
	row := []float64{1, 2, 3}
	p.TrailRow(time.Second, 4, 1, "sort", row)
	row[0] = 99
	for i := 1; i < 10; i++ {
		p.ControlTick(time.Duration(i)*time.Second, float64(i), i)
	}
	if len(got) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			t.Errorf("sink event %d has Seq %d", i, ev.Seq)
		}
	}
	if got[0].Kind != KindTrailRow || !reflect.DeepEqual(got[0].Row, []float64{1, 2, 3}) {
		t.Errorf("retained trail_row event = %+v, want row [1 2 3]", got[0])
	}
	ring := p.Events()
	if len(ring) != 2 || ring[0].Seq != 8 || ring[1].Seq != 9 || p.Dropped() != 8 {
		t.Errorf("ring kept %d events (dropped %d), want seq 8 and 9", len(ring), p.Dropped())
	}
	if !reflect.DeepEqual(ring, got[8:]) {
		t.Error("ring and sink disagree on the last two events")
	}
}

func TestStreamJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := newJSONLines(&buf)
	p := mustProbe(t, Config{Sink: s.sink})
	p.JobSubmit(90*time.Second, 3, "grep", 8, 1)
	p.Draw(91*time.Second, 2, 3, 0, 1.5, 0.75, true)
	p.Complete(100*time.Second, 3, 0, 2, 2, 50, 55, 9)
	if s.err != nil {
		t.Fatal(s.err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var submit struct {
		Seq  uint64  `json:"seq"`
		At   float64 `json:"at"`
		Kind string  `json:"kind"`
		Job  int     `json:"job"`
		App  string  `json:"app"`
		Maps int     `json:"maps"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &submit); err != nil {
		t.Fatal(err)
	}
	if submit.Kind != "job_submit" || submit.At != 90 || submit.Job != 3 || submit.App != "grep" || submit.Maps != 8 {
		t.Errorf("submit line decoded to %+v from %s", submit, lines[0])
	}
	var draw struct {
		Kind     string  `json:"kind"`
		Tau      float64 `json:"tau"`
		Weight   float64 `json:"weight"`
		Accepted bool    `json:"accepted"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &draw); err != nil {
		t.Fatal(err)
	}
	if draw.Kind != "draw" || draw.Tau != 1.5 || draw.Weight != 0.75 || !draw.Accepted {
		t.Errorf("draw line decoded to %+v from %s", draw, lines[1])
	}
	var comp struct {
		Kind       string  `json:"kind"`
		Task       string  `json:"task_kind"`
		TrueJoules float64 `json:"true_joules"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &comp); err != nil {
		t.Fatal(err)
	}
	if comp.Kind != "complete" || comp.Task != "reduce" || comp.TrueJoules != 55 {
		t.Errorf("complete line decoded to %+v from %s", comp, lines[2])
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Errorf("invalid JSON line: %s", l)
		}
	}
}

// TestStreamJobDoneTimeline pins the job_done wire format: the job's phase
// timeline travels as maps_done and shuffle_end seconds beside the failed
// flag, rendered even when zero (a failed job may never reach its barrier).
func TestStreamJobDoneTimeline(t *testing.T) {
	var buf bytes.Buffer
	s := newJSONLines(&buf)
	p := mustProbe(t, Config{Sink: s.sink})
	p.JobDone(300*time.Second, 4, false, 120*time.Second, 150*time.Second)
	p.JobDone(310*time.Second, 5, true, 0, 0)
	if s.err != nil {
		t.Fatal(s.err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		`{"seq":0,"at":300,"kind":"job_done","job":4,"failed":false,"maps_done":120,"shuffle_end":150}`,
		`{"seq":1,"at":310,"kind":"job_done","job":5,"failed":true,"maps_done":0,"shuffle_end":0}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestStreamErrorSticky: a sink whose writer fails keeps its first error,
// and the probe keeps recording past it.
func TestStreamErrorSticky(t *testing.T) {
	s := newJSONLines(&failWriter{n: 1})
	p := mustProbe(t, Config{Sink: s.sink})
	p.ControlTick(0, 0, 0)
	if s.err != nil {
		t.Fatalf("first write should succeed: %v", s.err)
	}
	p.ControlTick(time.Second, 1, 1)
	err := s.err
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("want the writer's error, got %v", err)
	}
	// Later records must not clear or replace the error, and the ring keeps
	// recording regardless.
	p.ControlTick(2*time.Second, 2, 2)
	if s.err != err {
		t.Error("stream error should be sticky")
	}
	if p.Recorded() != 3 || len(p.Events()) != 3 {
		t.Errorf("ring should keep recording past stream errors; Recorded=%d", p.Recorded())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindOffer: "offer", KindDraw: "draw", KindAssign: "assign",
		KindComplete: "complete", KindControlTick: "control_tick",
		KindSample: "sample", KindMachineState: "machine_state",
		KindJobSubmit: "job_submit", KindJobDone: "job_done", KindTrailRow: "trail_row",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(0).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestReportDeepCopies(t *testing.T) {
	p := mustProbe(t, Config{})
	p.Complete(0, 0, 0, 0, 0, 10, 12, 1)
	r := p.Report()
	r.TaskEnergyJ.Counts[0] = 999
	r.TaskEnergyJ.Count = 999
	if got := p.Report().TaskEnergyJ.Count; got != 1 {
		t.Errorf("Report must deep-copy histograms; count now %d", got)
	}
}

func TestMergeReports(t *testing.T) {
	a := mustProbe(t, Config{RingSize: 2})
	b := mustProbe(t, Config{})
	for i := 0; i < 5; i++ {
		a.Complete(0, 0, i, 0, 0, 10, float64(10+i), 1)
	}
	b.Complete(0, 1, 0, 1, 0, 20, 200, 2)
	b.Assign(0, 1, 0, 1, 0, "sort", false, 5, 4)

	m, err := MergeReports(a.Report(), b.Report())
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != a.Recorded()+b.Recorded() {
		t.Errorf("merged Events = %d, want %d", m.Events, a.Recorded()+b.Recorded())
	}
	if m.Dropped != 3 {
		t.Errorf("merged Dropped = %d, want 3", m.Dropped)
	}
	if m.TaskEnergyJ.Count != 6 || m.TaskEnergyJ.Max != 200 {
		t.Errorf("merged energy: count=%d max=%v", m.TaskEnergyJ.Count, m.TaskEnergyJ.Max)
	}
	if m.QueueWaitS.Count != 1 {
		t.Errorf("merged wait count = %d", m.QueueWaitS.Count)
	}

	// Inputs must be left untouched by the merge.
	if a.Report().TaskEnergyJ.Count != 5 {
		t.Error("MergeReports mutated an input report")
	}

	// Empty merge: zero-value Report.
	z, err := MergeReports()
	if err != nil {
		t.Fatal(err)
	}
	if z.Events != 0 {
		t.Errorf("empty merge Events = %d", z.Events)
	}
}

func TestMergeReportsBoundsMismatch(t *testing.T) {
	a := mustProbe(t, Config{EnergyBounds: []float64{1, 2}})
	b := mustProbe(t, Config{EnergyBounds: []float64{1, 3}})
	a.Complete(0, 0, 0, 0, 0, 1, 1, 1)
	b.Complete(0, 0, 0, 0, 0, 1, 1, 1)
	if _, err := MergeReports(a.Report(), b.Report()); err == nil {
		t.Error("merging reports with different bounds should fail")
	}
}

func TestReportWriteJSON(t *testing.T) {
	p := mustProbe(t, Config{})
	p.Complete(time.Minute, 1, 0, 0, 0, 10, 11, 5)
	var buf bytes.Buffer
	if err := p.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Events != 1 || decoded.TaskEnergyJ.Count != 1 {
		t.Errorf("round-tripped report %+v", decoded)
	}
}
