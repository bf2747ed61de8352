package probe

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// recorder returns a probe built from cfg whose sink appends every event
// to *evs: the way a caller keeps a run's events.
func recorder(cfg Config, evs *[]Event) *Probe {
	cfg.Sink = func(ev Event) { *evs = append(*evs, ev) }
	return New(cfg)
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
	r := p.Report()
	if r.Events != 0 || r.TaskEnergyJ != nil {
		t.Error("nil probe Report should be empty")
	}
}

// TestProbeFootprint bounds what a probe with no sink allocates across New
// and a few thousand records of every kind: it keeps counts and
// histograms, not events, so its footprint does not grow with the run.
func TestProbeFootprint(t *testing.T) {
	row := make([]float64, 256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New(Config{SampleEvery: 1, Trails: true})
	const rounds = 512
	for i := range rounds {
		at := time.Duration(i) * time.Second
		m := i % 64
		p.JobSubmit(at, i, "sort", 4, 1)
		p.Offer(at, m, 0, 3)
		p.Draw(at, m, i, 0, 0.5, 0.25, true)
		p.Assign(at, i, 0, m, 0, "sort", true, 10, 2)
		p.Complete(at, i, 0, m, 0, 10, 11, 1)
		p.Sample(at, m, "atom", 0.5, 10, 1, 1)
		p.ControlTick(at, 100, i)
		p.TrailRow(at, i, 0, "sort", row)
		p.MachineState(at, m, "sleep")
		p.JobDone(at, i, false, at, at)
	}
	runtime.ReadMemStats(&after)
	if p.Report().Events != 10*rounds {
		t.Fatalf("Report().Events = %d, want %d", p.Report().Events, 10*rounds)
	}
	const bound = 64 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("a probe with no sink allocated %d bytes over %d records, want at most %d", got, p.Report().Events, bound)
	}
}

func TestOfferGapHistogram(t *testing.T) {
	p := New(Config{})
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
	p := New(Config{})
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
	p := New(Config{SampleEvery: 3})
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
	off := New(Config{})
	if off.ShouldSample() {
		t.Error("SampleEvery=0 should never sample")
	}
}

// TestTrailRowCopies: the sink gets its own copy of a trail row, and with
// no sink TrailRow copies nothing.
func TestTrailRowCopies(t *testing.T) {
	var evs []Event
	p := recorder(Config{Trails: true}, &evs)
	if !p.TrailsEnabled() {
		t.Fatal("trails should be enabled")
	}
	row := []float64{1, 2, 3}
	p.TrailRow(0, 1, 0, "sort", row)
	row[0] = 99
	if got := evs[0].Row[0]; got != 1 {
		t.Errorf("TrailRow must copy the slice; got %v", got)
	}
	bare := New(Config{Trails: true})
	if allocs := testing.AllocsPerRun(100, func() { bare.TrailRow(0, 1, 0, "sort", row) }); allocs != 0 {
		t.Errorf("TrailRow with no sink allocates %.0f times, want 0", allocs)
	}
}

// TestSinkSeesEveryEvent: the sink receives every event at record time,
// in sequence order; a trail_row event's Row stays the sink's after the
// caller reuses its slice.
func TestSinkSeesEveryEvent(t *testing.T) {
	var got []Event
	p := recorder(Config{Trails: true}, &got)
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
	if p.Report().Events != 10 {
		t.Errorf("Report().Events = %d, want 10", p.Report().Events)
	}
}

func TestStreamJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := newJSONLines(&buf)
	p := New(Config{Sink: s.sink})
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
	p := New(Config{Sink: s.sink})
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
	p := New(Config{Sink: s.sink})
	p.ControlTick(0, 0, 0)
	if s.err != nil {
		t.Fatalf("first write should succeed: %v", s.err)
	}
	p.ControlTick(time.Second, 1, 1)
	err := s.err
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("want the writer's error, got %v", err)
	}
	// Later records must not clear or replace the error, and the probe
	// keeps recording regardless.
	p.ControlTick(2*time.Second, 2, 2)
	if s.err != err {
		t.Error("stream error should be sticky")
	}
	if p.Report().Events != 3 {
		t.Errorf("the probe should keep recording past stream errors; Report().Events = %d", p.Report().Events)
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
	p := New(Config{})
	p.Complete(0, 0, 0, 0, 0, 10, 12, 1)
	r := p.Report()
	r.TaskEnergyJ.Counts[0] = 999
	r.TaskEnergyJ.Count = 999
	if got := p.Report().TaskEnergyJ.Count; got != 1 {
		t.Errorf("Report must deep-copy histograms; count now %d", got)
	}
}

func TestMergeReports(t *testing.T) {
	a := New(Config{})
	b := New(Config{})
	for i := 0; i < 5; i++ {
		a.Complete(0, 0, i, 0, 0, 10, float64(10+i), 1)
	}
	b.Complete(0, 1, 0, 1, 0, 20, 200, 2)
	b.Assign(0, 1, 0, 1, 0, "sort", false, 5, 4)

	m, err := MergeReports(a.Report(), b.Report())
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != 5+2 {
		t.Errorf("merged Events = %d, want 5 + 2", m.Events)
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
	a := Report{TaskEnergyJ: mustHistogram(t, []float64{1, 2})}
	b := Report{TaskEnergyJ: mustHistogram(t, []float64{1, 3})}
	a.TaskEnergyJ.Observe(1)
	b.TaskEnergyJ.Observe(1)
	if _, err := MergeReports(a, b); err == nil {
		t.Error("merging reports with different bounds should fail")
	}
}

func TestReportWriteJSON(t *testing.T) {
	p := New(Config{})
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
