package main

import (
	"slices"
	"time"
)

// Every time the benchmark reports is scaled to a reference speed.
//
// On a shared 2-vCPU Intel Xeon virtual machine, the same warm run of one
// fixed 1024-machine spec measured anywhere from 35 to 72 ms within two
// minutes, with process CPU time tracking the wall clock: the slowdown is
// contention from other tenants, not stolen time. A run of the benchmark
// sits inside one such phase, so medians over its units cannot remove it.
// Each phase of a measurement therefore also runs a reference kernel — a
// fixed, allocation-free mix of scattered table updates, binary-heap
// traffic, a branchy scan and a float sort, the operations the simulator
// spends its time in — which slows down with the host. A time is reported
// as measured × refNominal / the mean of the kernel's times just before
// and just after it: the time the work would take on a host where the
// kernel takes refNominal, which is about what it takes on that machine
// uncontended. On that VM this halved the seed-to-seed spread of the
// median run time. The kernel lives in the benchmark, so no change to
// the simulator can change it.
const refNominal = 2 * time.Millisecond

// refKernel holds the kernel's preallocated state.
type refKernel struct {
	table  []int32
	heap   []int64
	scan   []int32
	fs     []float64
	sorted []float64
	x      uint64
	sink   int64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		table:  make([]int32, 1<<16),
		heap:   make([]int64, 0, 2048),
		scan:   make([]int32, 1<<16),
		fs:     make([]float64, 2048),
		sorted: make([]float64, 2048),
		x:      88172645463325252,
	}
	for i := range k.scan {
		k.scan[i] = int32(i * 7919 % 1013)
	}
	return k
}

// measure runs the kernel's fixed work once and returns how long it took.
func (k *refKernel) measure() time.Duration {
	start := time.Now()
	for round := 0; round < 6; round++ {
		k.round()
	}
	return time.Since(start)
}

func (k *refKernel) round() {
	for i := 0; i < 2000; i++ {
		v := k.next()
		k.table[(v*0x9E3779B97F4A7C15)>>48] += int32(i)
		k.push(int64(v >> 1))
		if len(k.heap) > 1000 {
			k.sink += k.pop()
		}
	}
	lim := int32(k.next() % 1013)
	for _, s := range k.scan {
		if s < lim {
			k.sink++
		} else if s&3 == 0 {
			k.sink += int64(s)
		}
	}
	for i := range k.fs {
		k.fs[i] = float64(k.next()>>11) * 0x1p-53
	}
	copy(k.sorted, k.fs)
	slices.Sort(k.sorted)
	k.sink += int64(k.sorted[100] * 1e6)
}

// next is a xorshift64 step.
func (k *refKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

func (k *refKernel) push(v int64) {
	h := append(k.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() int64 {
	h := k.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	k.heap = h
	return top
}

// refClock brackets measured work with runs of the reference kernel.
type refClock struct {
	k     *refKernel
	last  time.Duration   // the kernel's latest time
	times []time.Duration // every kernel time
}

func newRefClock() *refClock {
	c := &refClock{k: newRefKernel(), times: make([]time.Duration, 0, 1<<14)}
	c.k.measure() // fault the kernel's pages in
	c.last = c.k.measure()
	return c
}

// factor runs the kernel and returns the factor that turns a duration
// measured since its previous run into reference-speed time: refNominal
// over the mean of the kernel's times on either side of the work.
func (c *refClock) factor() float64 {
	next := c.k.measure()
	f := 2 * float64(refNominal) / float64(c.last+next)
	c.last = next
	c.times = append(c.times, next)
	return f
}

// medianMs is the kernel's median time so far, in measured milliseconds.
func (c *refClock) medianMs() float64 {
	s := slices.Clone(c.times)
	slices.Sort(s)
	return float64(s[len(s)/2]) / 1e6
}
