package mapreduce

import (
	"fmt"
	"time"
)

// machineQueue is a min-heap of machine IDs keyed by time, with at most one
// entry per machine, so it never outgrows the fleet. The driver keeps two:
// the sleep candidates keyed by lastBusy and the blacklisted machines keyed
// by blacklist expiry. A key may fall behind the time it stands for (a
// machine busy again since it was queued, a blacklist extended), so the
// driver revalidates every entry it pops and queues the machine again with
// its current key when it is not due yet.
type machineQueue struct {
	heap   []queuedMachine
	queued []bool
}

// queuedMachine is one heap entry.
type queuedMachine struct {
	key time.Duration
	id  int
}

// reset empties the queue for a fleet of n machines over its retained
// storage; a queue that is off drops its membership flags.
func (q *machineQueue) reset(n int, on bool) {
	q.heap = q.heap[:0]
	q.queued = zeroed(q.queued, n, on)
}

// push queues machine id with the given key unless it is already queued.
func (q *machineQueue) push(id int, key time.Duration) {
	if q.queued[id] {
		return
	}
	q.queued[id] = true
	h := append(q.heap, queuedMachine{key, id})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].key <= key {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

// popDue removes and returns the machine with the smallest key, if that key
// is at or before limit.
func (q *machineQueue) popDue(limit time.Duration) (int, bool) {
	h := q.heap
	if len(h) == 0 || h[0].key > limit {
		return 0, false
	}
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].key < h[c].key {
			c = r
		}
		if h[i].key <= h[c].key {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.heap = h
	q.queued[top.id] = false
	return top.id, true
}

// keys checks the heap order and that the membership flags list exactly
// the queued machines, each once, and returns every queued machine's key
// (zero for the others). Test-only, through checkAggregates.
func (q *machineQueue) keys() ([]time.Duration, error) {
	keys := make([]time.Duration, len(q.queued))
	seen := make([]bool, len(q.queued))
	for i, e := range q.heap {
		if i > 0 && q.heap[(i-1)/2].key > e.key {
			return nil, fmt.Errorf("heap entry %d (machine %d, %v) sorts before its parent", i, e.id, e.key)
		}
		if !q.queued[e.id] || seen[e.id] {
			return nil, fmt.Errorf("machine %d in the heap: flagged %v, seen before %v", e.id, q.queued[e.id], seen[e.id])
		}
		seen[e.id] = true
		keys[e.id] = e.key
	}
	for id, on := range q.queued {
		if on && !seen[id] {
			return nil, fmt.Errorf("machine %d flagged queued but not in the heap", id)
		}
	}
	return keys, nil
}
