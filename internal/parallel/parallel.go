// Package parallel provides the bounded worker-pool fan-out layer used to
// run independent simulations concurrently.
//
// Every experiment sweep in this repository is embarrassingly parallel
// across (scheduler, sweep-point, seed) cells: each cell owns its own
// sim.Engine, RNG forks and scheduler instance, and shares no mutable
// state with any other cell. Map exploits that by fanning the cells out
// over a bounded pool of goroutines while collecting results in
// submission (index) order, so the aggregation that follows consumes
// results in exactly the order a sequential loop would have produced
// them — float accumulations and table rows are bit-identical to the
// sequential path regardless of worker count or goroutine interleaving.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker cap used when Map is called
// with workers <= 0. Zero means GOMAXPROCS. It is read atomically so
// concurrent sweeps may consult it while a CLI flag handler sets it.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker cap used by
// Map when its workers argument is <= 0. n <= 0 restores the GOMAXPROCS
// default. The eantsim -parallel flag routes here.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers reports the effective default worker cap: the value set
// by SetDefaultWorkers, or GOMAXPROCS when unset.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the n results in index order. workers <= 0 uses
// DefaultWorkers(); workers == 1 runs every call inline on the calling
// goroutine, which is the reference sequential path.
//
// Work items are claimed in strictly increasing index order. When a call
// fails, no further items are claimed, already-running items finish, and
// Map returns the error of the lowest-index failed item — the same error
// a sequential loop that stops at the first failure would return
// (indices below the first failure always run to completion before the
// failure can halt claiming). On error the result slice is nil.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorkers(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// Workers reports the worker count MapWorkers will actually use for n
// items: workers (or DefaultWorkers when <= 0) clamped to n. Callers
// sizing per-worker state (one warm simulation world per worker) use it
// to allocate exactly the slots that will be touched.
func Workers(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// MapWorkers is Map with the worker identity exposed: fn(worker, i) runs
// with worker in [0, Workers(n, workers)), and no two concurrent calls
// share a worker index. Per-worker state (scratch arenas, warm simulation
// worlds) indexed by worker therefore needs no locking; items claimed by
// the same worker see its state in strictly increasing index order. The
// inline path (effective worker count 1) always passes worker 0.
func MapWorkers[T any](n, workers int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(n, workers)
	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(0, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64 // next index to claim
		failed atomic.Bool  // stop claiming new items
		mu     sync.Mutex
		errIdx = -1
		errVal error
		wg     sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, errVal = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(w, i)
				if err != nil {
					record(i, err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, errVal
	}
	return out, nil
}
