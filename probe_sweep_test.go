package eant

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// sweepStream is a probe's JSON Lines export, built as eantsim's trace
// experiment builds it: a sink encoding one line per event that keeps the
// first error.
type sweepStream struct {
	buf bytes.Buffer
	err error
}

// bytes returns the stream, failing t on an encoding error.
func (s *sweepStream) bytes(t testing.TB) []byte {
	t.Helper()
	if s.err != nil {
		t.Fatalf("probe stream: %v", s.err)
	}
	return s.buf.Bytes()
}

// newSweepProbe builds a fresh fully-enabled probe whose sink writes its
// JSON Lines stream into the returned sweepStream.
func newSweepProbe(t testing.TB) (*Probe, *sweepStream) {
	t.Helper()
	s := new(sweepStream)
	enc := json.NewEncoder(&s.buf)
	p, err := NewProbe(ProbeConfig{SampleEvery: 1, Trails: true, Sink: func(ev ProbeEvent) {
		if s.err == nil {
			s.err = enc.Encode(ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

// TestProbeDoesNotPerturbStats is the API-level statement of the
// observability contract: attaching a fully-enabled probe (every event
// streamed, machines sampled every heartbeat, trail rows at every tick) to
// a run leaves the entire Stats record — every counter, task record and
// per-machine energy figure — deeply equal to the probe-free run's. Every
// policy runs plain and with faults, whose recovery paths (crash, recover,
// blacklist, job failure) carry their own hooks.
func TestProbeDoesNotPerturbStats(t *testing.T) {
	jobs := MSDWorkload(12, 9)
	faults := &FaultConfig{
		MachineMTBF: 2 * time.Hour, MachineMTTR: 5 * time.Minute, TaskFailProb: 0.02,
	}
	for _, s := range Schedulers() {
		for _, v := range []struct {
			name   string
			faults *FaultConfig
		}{{"plain", nil}, {"faults", faults}} {
			t.Run(string(s)+"/"+v.name, func(t *testing.T) {
				base := RunSpec{
					Cluster:         scaledTestbed(t, 1),
					Scheduler:       s,
					Jobs:            jobs,
					Seed:            9,
					KeepTaskRecords: true,
					Faults:          v.faults,
				}
				bare, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				probed := base
				probed.Cluster = base.Cluster.Clone()
				probed.Probe, _ = newSweepProbe(t)
				withProbe, err := Run(probed)
				if err != nil {
					t.Fatal(err)
				}
				if probed.Probe.Report().Events == 0 {
					t.Fatal("probe recorded nothing; the hooks are not wired")
				}
				if !reflect.DeepEqual(bare.Stats, withProbe.Stats) {
					t.Errorf("probe perturbed Stats: joules %v vs %v, makespan %v vs %v",
						bare.Stats.TotalJoules, withProbe.Stats.TotalJoules,
						bare.Stats.Horizon, withProbe.Stats.Horizon)
				}
			})
		}
	}
}

// TestProbeSweepParallel runs a TestScaleSweepParallel-style grid with a
// fully-enabled probe (JSONL stream included) attached to every cell, via
// the parallel worker pool. Under `go test -race` it is the data-race
// check for the observability layer; in any mode it checks that each
// cell's probe output — raw event stream and histogram report — is
// byte-identical to a sequential rerun's, and that merging reports in
// submission order is reproducible.
func TestProbeSweepParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep; skipped in -short mode")
	}
	type cell struct {
		spec   RunSpec
		stream *sweepStream
	}
	var cells []cell
	for _, jobs := range []int{5, 20} {
		for _, sched := range []Scheduler{SchedulerEAnt, SchedulerFair} {
			p, buf := newSweepProbe(t)
			cells = append(cells, cell{
				spec: RunSpec{
					Cluster:   scaledTestbed(t, 1),
					Scheduler: sched,
					Jobs:      MSDWorkload(jobs, 3),
					Seed:      3,
					Probe:     p,
				},
				stream: buf,
			})
		}
	}
	specs := make([]RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.spec
	}
	par, err := RunMany(specs, 4)
	if err != nil {
		t.Fatal(err)
	}

	parReports := make([]ProbeReport, len(cells))
	for i, c := range cells {
		parReports[i] = c.spec.Probe.Report()
	}

	// Sequential rerun of every cell with its own fresh probe: simulation
	// results, raw event streams and reports must all be byte-identical.
	seqReports := make([]ProbeReport, len(cells))
	for i, c := range cells {
		spec := c.spec
		spec.Cluster = spec.Cluster.Clone()
		p, buf := newSweepProbe(t)
		spec.Probe = p
		seq, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].TotalJoules != seq.TotalJoules || par[i].Makespan != seq.Makespan {
			t.Errorf("cell %d: parallel run diverged from sequential", i)
		}
		if !bytes.Equal(c.stream.bytes(t), buf.bytes(t)) {
			t.Errorf("cell %d: probe JSONL stream differs between parallel and sequential runs", i)
		}
		if !reflect.DeepEqual(c.spec.Probe.Report(), p.Report()) {
			t.Errorf("cell %d: probe report differs between parallel and sequential runs", i)
		}
		seqReports[i] = p.Report()
	}

	// Submission-order aggregation is reproducible: the merged report from
	// the parallel sweep equals the merge of the sequential reruns.
	parMerged, err := MergeProbeReports(parReports...)
	if err != nil {
		t.Fatal(err)
	}
	seqMerged, err := MergeProbeReports(seqReports...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parMerged, seqMerged) {
		t.Error("merged sweep reports differ between parallel and sequential aggregation")
	}
	if parMerged.TaskEnergyJ == nil || parMerged.TaskEnergyJ.Count == 0 {
		t.Error("merged report is empty; probes recorded nothing")
	}
}
