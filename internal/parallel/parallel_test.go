package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	out, err := Map(0, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v; want nil, nil", out, err)
	}
	out, err = Map(-3, 4, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(-3) = %v, %v; want nil, nil", out, err)
	}
}

// TestMapWorkersOneRunsInline pins the reference path: with workers == 1
// every call runs on the calling goroutine, in index order, stopping at
// the first error exactly like a plain loop.
func TestMapWorkersOneRunsInline(t *testing.T) {
	main := goroutineID()
	var order []int
	_, err := Map(5, 1, func(i int) (int, error) {
		if goroutineID() != main {
			t.Error("workers=1 ran fn off the calling goroutine")
		}
		order = append(order, i)
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// TestMapBoundedConcurrency asserts the pool never runs more than the
// requested number of calls at once.
func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(64, workers, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Give the scheduler chances to interleave so an unbounded pool
		// would actually be observed exceeding the cap.
		for y := 0; y < 4; y++ {
			runtime.Gosched()
		}
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker cap %d", p, workers)
	}
}

// TestMapReturnsLowestIndexError pins the deterministic error rule: the
// error returned is the one a sequential stop-at-first-failure loop would
// have hit, regardless of which goroutine failed first in wall-clock time.
func TestMapReturnsLowestIndexError(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("fail@%d", i) }
	for trial := 0; trial < 50; trial++ {
		out, err := Map(32, 8, func(i int) (int, error) {
			if i == 7 || i == 19 || i == 31 {
				return 0, errAt(i)
			}
			return i, nil
		})
		if out != nil {
			t.Fatal("result slice must be nil on error")
		}
		if err == nil || err.Error() != "fail@7" {
			t.Fatalf("trial %d: err = %v, want fail@7", trial, err)
		}
	}
}

func TestMapStopsClaimingAfterFailure(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(1000, 2, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("ran %d items after an index-0 failure; claiming did not stop", n)
	}
}

func TestDefaultWorkers(t *testing.T) {
	t.Cleanup(func() { SetDefaultWorkers(0) })
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("unset DefaultWorkers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers() = %d, want 3", got)
	}
	SetDefaultWorkers(-5)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative reset: DefaultWorkers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// goroutineID returns the current goroutine's ID from its stack header
// ("goroutine N [running]:"), stable for the goroutine's lifetime.
func goroutineID() string {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	return strings.Fields(string(buf[:n]))[1]
}
