package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Trace-event process IDs: machines render as threads of the "cluster"
// process, jobs as threads of the "jobs" process.
const (
	pidCluster = 1
	pidJobs    = 2
)

// traceEvent is one element of the Chrome trace-event JSON array
// (the format Perfetto and chrome://tracing load). ts and dur are in
// microseconds of simulated time. Cat carries the originating probe
// Kind's wire name, so Perfetto's category filter can isolate one event
// stream (all completions, all machine-state flips) across threads;
// metadata records carry no category.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// finite maps NaN and ±Inf to zero: JSON has no encoding for them, and a
// counter sample must never be able to abort the whole document.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// WriteTimeline renders probe events as a Chrome trace-event JSON document
// for Perfetto (ui.perfetto.dev) or chrome://tracing: machines become
// threads of a "cluster" process, task attempts duration spans on their
// machine's thread (reconstructed from completion events, so spans survive
// an event list that lacks their start), control ticks instants plus fleet
// counters, machine samples per-machine counters, and jobs spans of a
// separate "jobs" process. Every string passes through encoding/json, so
// hostile job or machine names cannot corrupt the document.
func WriteTimeline(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return fmt.Errorf("probe: timeline: %w", err)
	}
	enc := emitter{w: bw}

	enc.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pidCluster,
		Args: map[string]any{"name": "cluster"}})
	enc.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pidJobs,
		Args: map[string]any{"name": "jobs"}})

	// Machine thread names: prefer the type label carried by samples;
	// fall back to the bare ID for machines that never got sampled.
	named := map[int32]bool{}
	for _, ev := range events {
		if ev.Kind == KindSample && !named[ev.MachineID] {
			named[ev.MachineID] = true
			enc.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidCluster, Tid: int(ev.MachineID),
				Args: map[string]any{"name": fmt.Sprintf("m%d %s", ev.MachineID, ev.Label)}})
		}
	}
	jobStart := map[int32]time.Duration{}
	for _, ev := range events {
		switch ev.Kind {
		case KindComplete:
			dur := secsToDuration(ev.C)
			start := ev.At - dur
			if start < 0 {
				start = 0
			}
			if !named[ev.MachineID] {
				named[ev.MachineID] = true
				enc.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidCluster, Tid: int(ev.MachineID),
					Args: map[string]any{"name": fmt.Sprintf("m%d", ev.MachineID)}})
			}
			enc.emit(traceEvent{
				Name: fmt.Sprintf("j%d/%s%d", ev.JobID, taskKindName(ev.TaskKind), ev.Index),
				Cat:  ev.Kind.String(),
				Ph:   "X", Ts: micros(start), Dur: micros(ev.At - start),
				Pid: pidCluster, Tid: int(ev.MachineID),
				Args: map[string]any{"est_joules": finite(ev.A), "true_joules": finite(ev.B)},
			})
		case KindControlTick:
			enc.emit(traceEvent{Name: "control tick", Cat: ev.Kind.String(), Ph: "i", Ts: micros(ev.At),
				Pid: pidCluster, Scope: "p"})
			enc.emit(traceEvent{Name: "fleet energy", Cat: ev.Kind.String(), Ph: "C", Ts: micros(ev.At), Pid: pidCluster,
				Args: map[string]any{"joules": finite(ev.A)}})
			enc.emit(traceEvent{Name: "tasks done", Cat: ev.Kind.String(), Ph: "C", Ts: micros(ev.At), Pid: pidCluster,
				Args: map[string]any{"done": ev.N}})
		case KindSample:
			enc.emit(traceEvent{Name: fmt.Sprintf("m%d util", ev.MachineID), Cat: ev.Kind.String(), Ph: "C",
				Ts: micros(ev.At), Pid: pidCluster,
				Args: map[string]any{"util": finite(ev.A)}})
		case KindMachineState:
			enc.emit(traceEvent{Name: ev.Label, Cat: ev.Kind.String(), Ph: "i", Ts: micros(ev.At),
				Pid: pidCluster, Tid: int(ev.MachineID), Scope: "t"})
		case KindJobSubmit:
			jobStart[ev.JobID] = ev.At
			enc.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidJobs, Tid: int(ev.JobID),
				Args: map[string]any{"name": fmt.Sprintf("j%d %s", ev.JobID, ev.Label)}})
		case KindJobDone:
			name := "job"
			if ev.Flag {
				name = "job (failed)"
			}
			start, ok := jobStart[ev.JobID]
			if !ok {
				// The event list lacks the submit event; record the
				// completion as an instant rather than inventing a span.
				enc.emit(traceEvent{Name: name, Cat: ev.Kind.String(), Ph: "i", Ts: micros(ev.At),
					Pid: pidJobs, Tid: int(ev.JobID), Scope: "t"})
				continue
			}
			enc.emit(traceEvent{Name: name, Cat: ev.Kind.String(), Ph: "X", Ts: micros(start), Dur: micros(ev.At - start),
				Pid: pidJobs, Tid: int(ev.JobID)})
		}
	}
	if enc.err != nil {
		return fmt.Errorf("probe: timeline: %w", enc.err)
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return fmt.Errorf("probe: timeline: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("probe: timeline: %w", err)
	}
	return nil
}

// emitter writes comma-separated JSON array elements, holding the first
// error.
type emitter struct {
	w     *bufio.Writer
	wrote bool
	err   error
}

func (e *emitter) emit(ev traceEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return
	}
	if e.wrote {
		if err := e.w.WriteByte(','); err != nil {
			e.err = err
			return
		}
	}
	e.wrote = true
	if _, err := e.w.Write(b); err != nil {
		e.err = err
	}
}

// secsToDuration converts fractional seconds, guarding NaN and negatives
// (hostile fuzz inputs) to zero.
func secsToDuration(secs float64) time.Duration {
	if !(secs > 0) {
		return 0
	}
	const maxSecs = float64(1<<62) / float64(time.Second)
	if secs > maxSecs {
		secs = maxSecs
	}
	return time.Duration(secs * float64(time.Second))
}
