package mapreduce

import (
	"cmp"
	"slices"

	"eant/internal/cluster"
)

// This file is the driver's failure-recovery half: the fault events and the
// JobTracker reactions to them. Attempt failures retry the logical task
// up to the configured budget; machine crashes kill in-flight attempts,
// re-execute completed map outputs lost with the machine's local disk
// (Hadoop 1.x keeps map output outside HDFS), and bench the machine until
// repair; repeated failures blacklist a machine for a cooldown.

// failAttempt terminates a doomed attempt mid-flight: its slot and CPU
// share are released, the failure is charged to the logical task and to
// the machine's blacklist record, and the task is retried — or its job is
// failed once the retry budget (mapred.map.max.attempts) is exhausted.
func (d *Driver) failAttempt(t *Task) {
	m := t.Machine
	// lastBusy before the release, as in completeTask.
	if d.lastBusy != nil {
		d.lastBusy[m.ID()] = d.engine.Now()
	}
	d.detachRunning(t)
	d.stats.TaskFailures++
	d.noteMachineFailure(m)

	canonical := t
	if t.original != nil {
		canonical = t.original
	}
	canonical.failures++
	if canonical.failures >= d.faults.MaxAttempts() {
		t.State = TaskKilled
		t.Finish = d.engine.Now()
		d.failJob(t.Job)
		return
	}
	d.rescheduleAttempt(t)
	d.mutated("failAttempt")
}

// rescheduleAttempt returns a dead attempt's logical task to the pending
// pools, honoring speculation race links so that at most one live attempt
// (or one pending entry) represents the logical task at any time:
//
//   - The attempt has a live clone: the clone keeps racing alone. The dead
//     original stays linked so the clone's completion resolves the race
//     against it (killTask is idempotent on killed tasks).
//   - The attempt is a clone: the link is dissolved. The original keeps
//     running if it is still in flight; if it too is dead (one crash can
//     sweep both), it is revived and requeued.
//   - No race: the task itself is reset and requeued.
func (d *Driver) rescheduleAttempt(t *Task) {
	now := d.engine.Now()
	if t.clone != nil {
		t.State = TaskKilled
		t.Finish = now
		return
	}
	if o := t.original; o != nil {
		t.original = nil
		o.clone = nil
		t.State = TaskKilled
		t.Finish = now
		if o.State == TaskRunning || o.State == TaskShuffling {
			return
		}
		o.resetForRetry()
		d.requeuePending(o)
		return
	}
	t.resetForRetry()
	d.requeuePending(t)
}

// crashMachine takes machine id down. Every in-flight attempt on the
// machine dies (without charging the retry budget — in Hadoop,
// tracker-death kills do not count against max attempts), completed map
// outputs stored there are re-executed for jobs that still need them, and
// the machine leaves the slot pool until repaired. Idempotent on a machine
// that is already down.
func (d *Driver) crashMachine(id int) {
	m := d.cluster.Machine(id)
	if !m.Available() {
		return
	}
	now := d.engine.Now()
	d.meter.Sync(m, now)

	// Collect and kill the machine's in-flight attempts in a deterministic
	// order; inFlight is unordered, so sort before acting.
	victims := d.victims[:0]
	for _, j := range d.active {
		for _, t := range j.inFlight {
			if t.Machine == m {
				victims = append(victims, t)
			}
		}
	}
	slices.SortFunc(victims, crashOrder)
	for _, t := range victims {
		d.detachRunning(t)
		d.stats.TasksKilledByCrash++
		d.rescheduleAttempt(t)
	}
	clear(victims)
	d.victims = victims[:0]
	for _, j := range d.active {
		d.reexecuteLostMaps(j, m)
	}

	m.Fail()
	if d.probe != nil {
		d.probe.MachineState(now, m.ID(), "crash")
	}
	d.noteAvailabilityChange(m)
	d.totalSlots -= m.Spec().Slots()
	d.totalMapSlots -= m.Spec().MapSlots
	d.totalReduceSlots -= m.Spec().ReduceSlots
	d.stats.Crashes++
	d.mutated("crash")
}

// crashOrder is the total order crashMachine kills attempts in: job ID,
// task kind, task index, and an original before its speculative clone.
func crashOrder(a, b *Task) int {
	if c := cmp.Or(
		cmp.Compare(a.Job.Spec.ID, b.Job.Spec.ID),
		cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.Index, b.Index),
	); c != 0 || a.Speculative() == b.Speculative() {
		return c
	}
	if b.Speculative() {
		return -1
	}
	return 1
}

// reexecuteLostMaps requeues job j's completed map tasks whose output
// lived on crashed machine m. Map-only jobs are spared (their output is in
// replicated HDFS), as are jobs whose reduces have all finished fetching.
// Reopening the map barrier cancels the shuffle→compute transition of
// reduces still shuffling; they are re-finalized when the barrier passes
// again. Reduces already in their compute phase keep running — they have
// fetched their input.
func (d *Driver) reexecuteLostMaps(j *Job, m cluster.Machine) {
	if len(j.Reduces) == 0 || j.reducesDone == len(j.Reduces) {
		return
	}
	barrierWasDone := j.MapsDone()
	lost := 0
	for i := range j.Maps {
		if t := &j.Maps[i]; t.State == TaskDone && t.Machine == m {
			j.mapsDone--
			t.resetForRetry()
			d.requeuePending(t)
			d.stats.MapOutputsLost++
			lost++
		}
	}
	// Re-executed maps can drag progress back under the slowstart gate.
	d.syncReduceGate(j)
	if lost == 0 || !barrierWasDone {
		return
	}
	for i := range j.Reduces {
		if r := &j.Reduces[i]; r.State == TaskShuffling {
			r.pendingEvent.Cancel()
		}
	}
}

// recoverMachine brings machine id back: it rejoins
// the slot pool with a clean blacklist record. Idempotent on a machine
// that is already up.
func (d *Driver) recoverMachine(id int) {
	m := d.cluster.Machine(id)
	if m.Available() {
		return
	}
	now := d.engine.Now()
	d.meter.Sync(m, now)
	m.Repair()
	d.totalSlots += m.Spec().Slots()
	d.totalMapSlots += m.Spec().MapSlots
	d.totalReduceSlots += m.Spec().ReduceSlots
	if d.lastBusy != nil {
		d.lastBusy[id] = now
	}
	if d.failCount != nil {
		d.failCount[id] = 0
		d.blacklistUntil[id] = 0
	}
	if d.probe != nil {
		d.probe.MachineState(now, m.ID(), "recover")
	}
	d.noteAvailabilityChange(m)
	d.queueSleep(m)
	d.stats.Recoveries++
	d.mutated("recover")
}

// failJob terminates j after a task exhausted its retry budget: every
// in-flight attempt is killed, the pending queues are drained, and the job
// is recorded as failed at the current instant.
func (d *Driver) failJob(j *Job) {
	if j.done {
		return
	}
	j.done = true
	j.failed = true
	j.Finished = d.engine.Now()
	if d.probe != nil {
		d.probe.JobDone(j.Finished, j.Spec.ID, true, j.MapsDoneAt, j.LastShuffleEnd)
	}

	attempts := j.AppendRunningAttempts(j.AppendRunningAttempts(nil, MapTask), ReduceTask)
	for _, t := range attempts {
		d.detachRunning(t)
		t.State = TaskKilled
		t.Finish = j.Finished
	}
	d.dropJobAggregates(j)
	j.pendingHead = len(j.pendingMaps)
	j.reduceHead = len(j.pendingReduces)
	j.clearLocal()

	d.stats.JobsFailed++
	d.stats.Jobs = append(d.stats.Jobs, JobResult{
		Spec:           j.Spec,
		Submitted:      j.Submitted,
		FirstStart:     j.FirstStart,
		MapsDoneAt:     j.MapsDoneAt,
		LastShuffleEnd: j.LastShuffleEnd,
		Finished:       j.Finished,
		Failed:         true,
	})
	for i, a := range d.active {
		if a == j {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.mutated("failJob")
	if d.finished() {
		d.engine.Stop()
	}
}

// noteMachineFailure charges one attempt failure against the machine;
// reaching the threshold benches it for the blacklist cooldown.
func (d *Driver) noteMachineFailure(m cluster.Machine) {
	cfg := d.faults.Config()
	if cfg.BlacklistThreshold <= 0 {
		return
	}
	d.failCount[m.ID()]++
	if d.failCount[m.ID()] >= cfg.BlacklistThreshold {
		d.blacklistUntil[m.ID()] = d.engine.Now() + cfg.BlacklistCooldown
		d.expiryQ.push(m.ID(), d.blacklistUntil[m.ID()])
		d.failCount[m.ID()] = 0
		d.stats.Blacklists++
		if d.probe != nil {
			d.probe.MachineState(d.engine.Now(), m.ID(), "blacklist")
		}
		d.reclassify(m)
	}
}

// expireBlacklists reconciles the class of every machine whose blacklist
// has run out, so no machine is served or counted as benched past its
// cooldown. A popped machine benched again since it was queued (the
// queue keeps one entry per machine) goes back under its new expiry. With
// fault injection off the queue is empty.
func (d *Driver) expireBlacklists() {
	now := d.engine.Now()
	for id, ok := d.expiryQ.popDue(now); ok; id, ok = d.expiryQ.popDue(now) {
		if d.blacklisted(id) {
			d.expiryQ.push(id, d.blacklistUntil[id])
			continue
		}
		d.reclassify(d.cluster.Machine(id))
	}
}

// blacklisted reports whether machine id is currently benched by the
// failure blacklist.
func (d *Driver) blacklisted(id int) bool {
	return d.blacklistUntil != nil && d.engine.Now() < d.blacklistUntil[id]
}
