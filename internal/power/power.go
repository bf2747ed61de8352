// Package power provides the two energy views the paper contrasts:
//
//   - Meter: ground-truth wall power, integrating each machine's actual
//     draw P = P_idle + α·U over virtual time. It stands in for the WattsUp
//     Pro meter on the authors' testbed (§V-B).
//   - TaskEstimator: E-Ant's Eq. 2 task-level estimate, built from the
//     per-process CPU utilization samples a TaskTracker reports each
//     heartbeat. Sampling quantization and measurement noise make it
//     deviate from the meter, which is what Fig. 4 (NRMSE) and Fig. 7
//     (noise scatter) measure.
package power

import (
	"fmt"
	"time"

	"eant/internal/cluster"
)

// Meter integrates true machine power over virtual time. Integration is
// exact for piecewise-constant utilization: callers must Sync a machine
// immediately before changing its utilization.
type Meter struct {
	lastSync []time.Duration
	joules   []float64
	utilSecs []float64 // ∫U dt, for time-averaged CPU utilization (Fig. 8b)
	cluster  *cluster.Cluster
}

// NewMeter returns a meter covering every machine in c, starting at time 0.
func NewMeter(c *cluster.Cluster) *Meter {
	return &Meter{
		lastSync: make([]time.Duration, c.Size()),
		joules:   make([]float64, c.Size()),
		utilSecs: make([]float64, c.Size()),
		cluster:  c,
	}
}

// Reset zeroes every accumulator and rewinds the sync clock to time 0,
// returning the meter to the state NewMeter leaves it in while keeping the
// allocated per-machine slices.
func (mt *Meter) Reset() {
	for i := range mt.lastSync {
		mt.lastSync[i] = 0
		mt.joules[i] = 0
		mt.utilSecs[i] = 0
	}
}

// Sync accrues energy for machine m at its current power draw from the last
// sync point up to now. Call it before every utilization change and before
// reading totals.
func (mt *Meter) Sync(m cluster.Machine, now time.Duration) {
	last := mt.lastSync[m.ID()]
	if now < last {
		panic(fmt.Sprintf("power: Sync(%s) at %v before last sync %v", m, now, last))
	}
	secs := (now - last).Seconds()
	mt.joules[m.ID()] += m.Power() * secs
	mt.utilSecs[m.ID()] += m.Utilization() * secs
	mt.lastSync[m.ID()] = now
}

// AvgUtilization returns machine id's time-averaged CPU utilization over
// [0, horizon]. horizon must be at least the machine's last sync point.
func (mt *Meter) AvgUtilization(id int, horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return mt.utilSecs[id] / horizon.Seconds()
}

// TypeAvgUtilization returns the time-averaged utilization per machine
// type over [0, horizon].
func (mt *Meter) TypeAvgUtilization(horizon time.Duration) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, m := range mt.cluster.Machines() {
		sums[m.Spec().Name] += mt.AvgUtilization(m.ID(), horizon)
		counts[m.Spec().Name]++
	}
	out := make(map[string]float64, len(sums))
	for name, s := range sums {
		out[name] = s / float64(counts[name])
	}
	return out
}

// SyncAll accrues energy for every machine up to now.
func (mt *Meter) SyncAll(now time.Duration) {
	for _, m := range mt.cluster.Machines() {
		mt.Sync(m, now)
	}
}

// MachineJoules returns the energy consumed by machine id so far, up to its
// last sync point.
func (mt *Meter) MachineJoules(id int) float64 { return mt.joules[id] }

// TotalJoules returns the fleet-wide energy up to each machine's last sync.
func (mt *Meter) TotalJoules() float64 {
	var total float64
	for _, j := range mt.joules {
		total += j
	}
	return total
}

// TypeJoules returns energy grouped by machine type name.
func (mt *Meter) TypeJoules() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range mt.cluster.Machines() {
		out[m.Spec().Name] += mt.joules[m.ID()]
	}
	return out
}

// TaskSample is one heartbeat-granularity CPU utilization observation for a
// running task: the task's process occupied Util of the whole machine for
// Dt of virtual time. This is what TaskTrackers attach to TaskReports.
type TaskSample struct {
	Util float64
	Dt   time.Duration
}

// EstimateTaskJoules evaluates Eq. 2 for one completed task on a machine of
// the given spec:
//
//	E = Σ_samples (P_idle/m_slot + α·u) · Δt
//
// The first term attributes an equal share of idle power to each occupied
// slot; the second charges the task its marginal dynamic power.
func EstimateTaskJoules(spec *cluster.TypeSpec, samples []TaskSample) float64 {
	idleShare := spec.IdleWatts / float64(spec.Slots())
	var joules float64
	for _, s := range samples {
		u := s.Util
		if u < 0 {
			u = 0
		}
		joules += (idleShare + spec.AlphaWatts*u) * s.Dt.Seconds()
	}
	return joules
}

// EstimateTaskJoulesUniform is the common case of a task whose sampled
// utilization is constant: n samples of identical (util, Δt).
func EstimateTaskJoulesUniform(spec *cluster.TypeSpec, util float64, total time.Duration) float64 {
	return EstimateTaskJoules(spec, []TaskSample{{Util: util, Dt: total}})
}
