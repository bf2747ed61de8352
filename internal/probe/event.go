package probe

import (
	"encoding/json"
	"time"
)

// Kind discriminates event records.
type Kind uint8

// Event kinds, in rough decision-loop order.
const (
	// KindOffer is one free-slot offer to the scheduler.
	KindOffer Kind = iota + 1
	// KindDraw is one roulette draw of E-Ant's colony selection.
	KindDraw
	// KindAssign is a task start.
	KindAssign
	// KindComplete is a task completion with its energy accounting.
	KindComplete
	// KindControlTick is a control-interval boundary.
	KindControlTick
	// KindSample is one machine's periodic utilization/energy/slot sample.
	KindSample
	// KindMachineState is a machine availability transition.
	KindMachineState
	// KindJobSubmit is a job entering the system.
	KindJobSubmit
	// KindJobDone is a job leaving the system.
	KindJobDone
	// KindTrailRow is one colony's pheromone row at a control tick.
	KindTrailRow
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindOffer:
		return "offer"
	case KindDraw:
		return "draw"
	case KindAssign:
		return "assign"
	case KindComplete:
		return "complete"
	case KindControlTick:
		return "control_tick"
	case KindSample:
		return "sample"
	case KindMachineState:
		return "machine_state"
	case KindJobSubmit:
		return "job_submit"
	case KindJobDone:
		return "job_done"
	case KindTrailRow:
		return "trail_row"
	default:
		return "unknown"
	}
}

// Event is one recorded observation. The struct is flat — fixed-width
// fields plus one string label and one optional float row — so the ring
// buffer stores events without per-event boxing. Field meaning depends on
// Kind; MarshalJSON renders only the fields a kind defines.
type Event struct {
	// Seq is the record's global sequence number (assigned by the probe).
	Seq uint64
	// At is the simulated-clock timestamp.
	At time.Duration
	// Kind discriminates the payload fields below.
	Kind Kind
	// TaskKind is 1 for map, 2 for reduce, 0 when not applicable
	// (mirrors mapreduce.TaskKind without importing it).
	TaskKind int8
	// Flag is Assign:local, Draw:accepted, JobDone:failed.
	Flag bool

	JobID     int32
	Index     int32
	MachineID int32

	// A, B, C are kind-specific float payloads:
	//   Draw:        A=tau      B=weight
	//   Assign:      A=est_secs B=wait_secs
	//   Complete:    A=est_J    B=true_J     C=dur_secs
	//   ControlTick: A=total_J
	//   Sample:      A=util     B=joules
	//   JobDone:     A=maps_done_secs B=shuffle_end_secs
	A, B, C float64
	// N, M are kind-specific int payloads:
	//   Offer:       N=pending
	//   ControlTick: N=tasks_done
	//   Sample:      N=free_map M=free_reduce
	//   JobSubmit:   N=maps     M=reduces
	N, M int32
	// Label is Assign/JobSubmit/TrailRow:app, Sample:machine type,
	// MachineState:state name.
	Label string
	// Row is the pheromone vector of a TrailRow event.
	Row []float64
}

// taskKindName renders the TaskKind payload field.
func taskKindName(k int8) string {
	switch k {
	case 1:
		return "map"
	case 2:
		return "reduce"
	default:
		return ""
	}
}

// MarshalJSON renders the event with only its kind's fields, via per-kind
// wire structs so every value is escaped by encoding/json (hostile app or
// machine-type names can never corrupt the stream).
func (e Event) MarshalJSON() ([]byte, error) {
	type header struct {
		Seq  uint64  `json:"seq"`
		At   float64 `json:"at"`
		Kind string  `json:"kind"`
	}
	h := header{Seq: e.Seq, At: e.At.Seconds(), Kind: e.Kind.String()}
	switch e.Kind {
	case KindOffer:
		return json.Marshal(struct {
			header
			Machine  int32  `json:"machine"`
			TaskKind string `json:"task_kind"`
			Pending  int32  `json:"pending"`
		}{h, e.MachineID, taskKindName(e.TaskKind), e.N})
	case KindDraw:
		return json.Marshal(struct {
			header
			Machine  int32   `json:"machine"`
			Job      int32   `json:"job"`
			TaskKind string  `json:"task_kind"`
			Tau      float64 `json:"tau"`
			Weight   float64 `json:"weight"`
			Accepted bool    `json:"accepted"`
		}{h, e.MachineID, e.JobID, taskKindName(e.TaskKind), e.A, e.B, e.Flag})
	case KindAssign:
		return json.Marshal(struct {
			header
			Job      int32   `json:"job"`
			Index    int32   `json:"index"`
			Machine  int32   `json:"machine"`
			TaskKind string  `json:"task_kind"`
			App      string  `json:"app"`
			Local    bool    `json:"local"`
			EstSecs  float64 `json:"est_secs"`
			WaitSecs float64 `json:"wait_secs"`
		}{h, e.JobID, e.Index, e.MachineID, taskKindName(e.TaskKind), e.Label, e.Flag, e.A, e.B})
	case KindComplete:
		return json.Marshal(struct {
			header
			Job        int32   `json:"job"`
			Index      int32   `json:"index"`
			Machine    int32   `json:"machine"`
			TaskKind   string  `json:"task_kind"`
			EstJoules  float64 `json:"est_joules"`
			TrueJoules float64 `json:"true_joules"`
			DurSecs    float64 `json:"dur_secs"`
		}{h, e.JobID, e.Index, e.MachineID, taskKindName(e.TaskKind), e.A, e.B, e.C})
	case KindControlTick:
		return json.Marshal(struct {
			header
			TotalJoules float64 `json:"total_joules"`
			TasksDone   int32   `json:"tasks_done"`
		}{h, e.A, e.N})
	case KindSample:
		return json.Marshal(struct {
			header
			Machine     int32   `json:"machine"`
			MachineType string  `json:"machine_type"`
			Util        float64 `json:"util"`
			Joules      float64 `json:"joules"`
			FreeMap     int32   `json:"free_map"`
			FreeReduce  int32   `json:"free_reduce"`
		}{h, e.MachineID, e.Label, e.A, e.B, e.N, e.M})
	case KindMachineState:
		return json.Marshal(struct {
			header
			Machine int32  `json:"machine"`
			State   string `json:"state"`
		}{h, e.MachineID, e.Label})
	case KindJobSubmit:
		return json.Marshal(struct {
			header
			Job     int32  `json:"job"`
			App     string `json:"app"`
			Maps    int32  `json:"maps"`
			Reduces int32  `json:"reduces"`
		}{h, e.JobID, e.Label, e.N, e.M})
	case KindJobDone:
		return json.Marshal(struct {
			header
			Job        int32   `json:"job"`
			Failed     bool    `json:"failed"`
			MapsDone   float64 `json:"maps_done"`
			ShuffleEnd float64 `json:"shuffle_end"`
		}{h, e.JobID, e.Flag, e.A, e.B})
	case KindTrailRow:
		return json.Marshal(struct {
			header
			Job      int32     `json:"job"`
			TaskKind string    `json:"task_kind"`
			App      string    `json:"app"`
			Row      []float64 `json:"row"`
		}{h, e.JobID, taskKindName(e.TaskKind), e.Label, e.Row})
	default:
		return json.Marshal(h)
	}
}
