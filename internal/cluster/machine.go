// Package cluster models the heterogeneous machine fleet of a Hadoop 1.x
// cluster: per-type hardware capability, the power envelope (idle watts plus
// a linear utilization slope, the model the paper identifies with least
// squares), and map/reduce slot accounting.
//
// The shipped catalog reproduces the paper's testbed: the Table I case-study
// pair (Core i7 desktop, Xeon E5 PowerEdge) and the §V-B fleet (8 Dell
// desktops, 3 T110, 2 T420, 1 T320, 1 T620, 1 Atom).
//
// World-state layout (DESIGN.md §17): per-machine mutable state lives in
// dense struct-of-arrays columns on the Cluster, indexed by MachineID.
// Machine is a two-word value handle (cluster pointer + index) — cheap to
// copy, comparable with ==, and free of per-machine heap objects.
package cluster

import (
	"fmt"
	"math"
)

// TypeSpec describes one hardware generation. SpeedFactor is the per-core
// throughput relative to the reference core (the desktop's 3.4 GHz i7 core
// is 1.0). IdleWatts and AlphaWatts define the machine power envelope
//
//	P = IdleWatts + AlphaWatts · U
//
// where U ∈ [0, 1] is whole-machine CPU utilization; this is the linear
// model the paper fits per machine type (§IV-B).
type TypeSpec struct {
	Name        string
	Cores       int
	SpeedFactor float64
	MemoryGB    int
	DiskMBps    float64 // aggregate local-disk bandwidth
	NetMBps     float64 // NIC bandwidth (GbE ≈ 117 MB/s)
	IdleWatts   float64
	AlphaWatts  float64
	MapSlots    int
	ReduceSlots int
}

// Slots returns the total concurrent task capacity (m_slot in Eq. 1/2).
func (s *TypeSpec) Slots() int { return s.MapSlots + s.ReduceSlots }

// PowerAt returns the machine power draw in watts at utilization u,
// clamping u into [0, 1].
func (s *TypeSpec) PowerAt(u float64) float64 {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return s.IdleWatts + s.AlphaWatts*u
}

// PeakWatts returns the draw at full utilization.
func (s *TypeSpec) PeakWatts() float64 { return s.IdleWatts + s.AlphaWatts }

// Validate reports the first structural problem with the spec.
func (s *TypeSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("cluster: spec has empty name")
	case s.Cores <= 0:
		return fmt.Errorf("cluster: spec %q has %d cores", s.Name, s.Cores)
	case s.SpeedFactor <= 0:
		return fmt.Errorf("cluster: spec %q has non-positive speed factor", s.Name)
	case s.DiskMBps <= 0 || s.NetMBps <= 0:
		return fmt.Errorf("cluster: spec %q has non-positive bandwidth", s.Name)
	case s.IdleWatts < 0 || s.AlphaWatts < 0:
		return fmt.Errorf("cluster: spec %q has negative power coefficients", s.Name)
	case s.MapSlots <= 0 || s.ReduceSlots < 0:
		return fmt.Errorf("cluster: spec %q has invalid slot counts", s.Name)
	case s.MapSlots > math.MaxInt16 || s.ReduceSlots > math.MaxInt16:
		// The per-machine slot columns are int16 (state.go).
		return fmt.Errorf("cluster: spec %q has more than %d map or reduce slots", s.Name, math.MaxInt16)
	}
	return nil
}

// MachineID indexes the cluster's per-machine state columns. IDs are dense:
// a fleet of n machines uses exactly 0..n-1, assigned in construction order.
type MachineID int32

// TypeID indexes a cluster's interned TypeSpec table. A fleet has at most
// 256 distinct hardware types — far beyond any real heterogeneous rack.
type TypeID uint8

// Per-machine status bits in the flags column.
const (
	// flagAsleep marks a consolidated (powered-down) machine; the
	// sleepWatts column holds its standby draw.
	flagAsleep uint8 = 1 << 0
	// flagDead marks a crashed machine (fault injection): it holds no
	// slots, draws no power, and is skipped by heartbeats until repaired.
	flagDead uint8 = 1 << 1
)

// Machine is a handle to one slave node: a cluster pointer plus a dense
// index into the cluster's state columns. It is a two-word value — pass it
// by value, compare it with ==. The zero Machine is invalid (Valid reports
// false); slot occupancy is plain state mutated by the single-threaded
// simulation loop, so Machine is not safe for concurrent use.
type Machine struct {
	c  *Cluster  //eant:reset-keep handle identity; per-machine state lives in the cluster columns
	id MachineID //eant:reset-keep machine identity is fixed at construction
}

// Valid reports whether the handle refers to a machine (the zero Machine
// does not).
func (m Machine) Valid() bool { return m.c != nil }

// ID returns the machine's dense identifier in [0, cluster.Size()).
func (m Machine) ID() int { return int(m.id) }

// Spec returns the machine's interned hardware type.
func (m Machine) Spec() *TypeSpec { return m.c.specOf[m.id] }

// Type returns the machine's interned type index.
func (m Machine) Type() TypeID { return m.c.typeOf[m.id] }

// String identifies the machine for logs: "T420#3".
func (m Machine) String() string { return fmt.Sprintf("%s#%d", m.Spec().Name, m.id) }

// FreeMapSlots returns the number of unoccupied map slots; a dead machine
// has none.
func (m Machine) FreeMapSlots() int {
	if m.c.flags[m.id]&flagDead != 0 {
		return 0
	}
	return int(m.c.mapSlots[m.id] - m.c.runningMap[m.id])
}

// FreeReduceSlots returns the number of unoccupied reduce slots; a dead
// machine has none.
func (m Machine) FreeReduceSlots() int {
	if m.c.flags[m.id]&flagDead != 0 {
		return 0
	}
	return int(m.c.reduceSlots[m.id] - m.c.runningReduce[m.id])
}

// RunningMap returns the number of occupied map slots.
func (m Machine) RunningMap() int { return int(m.c.runningMap[m.id]) }

// RunningReduce returns the number of occupied reduce slots.
func (m Machine) RunningReduce() int { return int(m.c.runningReduce[m.id]) }

// Running returns the total number of occupied slots.
func (m Machine) Running() int {
	return int(m.c.runningMap[m.id]) + int(m.c.runningReduce[m.id])
}

// Utilization returns the current whole-machine CPU utilization in [0, 1]:
// the Σ per-task machine share contributed by running tasks, piecewise
// constant between task start/finish events.
func (m Machine) Utilization() float64 { return m.c.util[m.id] }

// Power returns the current draw in watts: zero while dead, the standby
// draw while asleep, the envelope P_idle + α·U otherwise.
func (m Machine) Power() float64 {
	f := m.c.flags[m.id]
	if f&flagDead != 0 {
		return 0
	}
	if f&flagAsleep != 0 {
		return m.c.sleepWatts[m.id]
	}
	return m.Spec().PowerAt(m.c.util[m.id])
}

// Asleep reports whether the machine is powered down.
func (m Machine) Asleep() bool { return m.c.flags[m.id]&flagAsleep != 0 }

// Available reports whether the machine can run tasks (not crashed).
func (m Machine) Available() bool { return m.c.flags[m.id]&flagDead == 0 }

// Fail crashes the machine: it leaves the slot pool and draws no power
// until Repair. The driver must kill (and release) every running attempt
// first; failing a machine with occupied slots is a model bug and panics.
// A sleeping machine may crash; the crash clears the sleep state (the
// eventual repair is a reboot into the normal idle envelope).
func (m Machine) Fail() {
	if m.Running() > 0 {
		panic(fmt.Sprintf("cluster: %s crashed with %d running tasks", m, m.Running()))
	}
	m.c.flags[m.id] = flagDead
	m.c.sleepWatts[m.id] = 0
}

// Repair returns a crashed machine to service. Idempotent.
func (m Machine) Repair() { m.c.flags[m.id] &^= flagDead }

// Sleep powers the machine down to the given standby draw. Sleeping with
// tasks running is a policy bug and panics.
func (m Machine) Sleep(standbyWatts float64) {
	if m.Running() > 0 {
		panic(fmt.Sprintf("cluster: %s put to sleep with %d running tasks", m, m.Running()))
	}
	if standbyWatts < 0 {
		standbyWatts = 0
	}
	m.c.flags[m.id] |= flagAsleep
	m.c.sleepWatts[m.id] = standbyWatts
}

// Wake powers the machine back up. Idempotent.
func (m Machine) Wake() { m.c.flags[m.id] &^= flagAsleep }

// AcquireMap claims a map slot and adds the task's CPU share. It returns
// false without side effects when no map slot is free.
func (m Machine) AcquireMap(cpuShare float64) bool {
	if m.c.flags[m.id]&flagDead != 0 || m.c.runningMap[m.id] >= m.c.mapSlots[m.id] {
		return false
	}
	m.c.runningMap[m.id]++
	m.addUtil(cpuShare)
	return true
}

// AcquireReduce claims a reduce slot and adds the task's CPU share. It
// returns false without side effects when no reduce slot is free.
func (m Machine) AcquireReduce(cpuShare float64) bool {
	if m.c.flags[m.id]&flagDead != 0 || m.c.runningReduce[m.id] >= m.c.reduceSlots[m.id] {
		return false
	}
	m.c.runningReduce[m.id]++
	m.addUtil(cpuShare)
	return true
}

// ReleaseMap frees a map slot and removes the task's CPU share. Releasing
// an unheld slot is a model bug and panics.
func (m Machine) ReleaseMap(cpuShare float64) {
	if m.c.runningMap[m.id] <= 0 {
		panic(fmt.Sprintf("cluster: %s released map slot it does not hold", m))
	}
	m.c.runningMap[m.id]--
	m.addUtil(-cpuShare)
}

// ReleaseReduce frees a reduce slot and removes the task's CPU share.
func (m Machine) ReleaseReduce(cpuShare float64) {
	if m.c.runningReduce[m.id] <= 0 {
		panic(fmt.Sprintf("cluster: %s released reduce slot it does not hold", m))
	}
	m.c.runningReduce[m.id]--
	m.addUtil(-cpuShare)
}

func (m Machine) addUtil(d float64) {
	u := m.c.util[m.id] + d
	// Clamp tiny float drift so long runs can't accumulate a negative
	// utilization and produce negative power.
	if u < 1e-12 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	m.c.util[m.id] = u
}
