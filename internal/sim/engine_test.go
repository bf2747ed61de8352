package sim

import (
	"math"
	"testing"
	"time"
)

// recorder registers a kind that appends each firing's payload to *got.
func recorder(e *Engine, got *[]int) EventKind {
	return e.RegisterKind(func(i int, _ any) { *got = append(*got, i) })
}

// noop registers a kind whose handler does nothing.
func noop(e *Engine) EventKind { return e.RegisterKind(func(int, any) {}) }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := recorder(e, &got)
	e.ScheduleKind(3*time.Second, rec, 3, nil)
	e.ScheduleKind(1*time.Second, rec, 1, nil)
	e.ScheduleKind(2*time.Second, rec, 2, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := recorder(e, &got)
	for i := 0; i < 10; i++ {
		e.ScheduleKind(time.Second, rec, i, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var fired int
	child := e.RegisterKind(func(int, any) { fired++ })
	parent := e.RegisterKind(func(int, any) { e.ScheduleKindAfter(time.Second, child, 0, nil) })
	e.ScheduleKind(time.Second, parent, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Errorf("nested event fired %d times, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	past := noop(e)
	k := e.RegisterKind(func(int, any) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleKind(time.Second, past, 0, nil)
	})
	e.ScheduleKind(5*time.Second, k, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	NewEngine().RegisterKind(nil)
}

// TestEngineUnregisteredKindPanics: the zero kind is reserved and kinds
// beyond the table were never registered; scheduling either panics.
func TestEngineUnregisteredKindPanics(t *testing.T) {
	for _, kind := range []EventKind{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleKind(kind %d) did not panic", kind)
				}
			}()
			e := NewEngine()
			noop(e) // registers kind 1 only
			e.ScheduleKind(0, kind, 0, nil)
		}()
	}
}

// TestEnginePayloadIsNotTruncated: the int payload reaches the handler
// intact, including values beyond the int32 range.
func TestEnginePayloadIsNotTruncated(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := recorder(e, &got)
	want := []int{math.MaxInt32 + 1, math.MaxInt, math.MinInt32 - 1}
	for _, i := range want {
		e.ScheduleKind(0, rec, i, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("payloads = %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []int
	rec := recorder(e, &fired)
	for _, s := range []int{1, 2, 3, 4, 5} {
		e.ScheduleKind(time.Duration(s)*time.Second, rec, s, nil)
	}
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want horizon 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	// Resuming runs the remainder.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events total, want 5", len(fired))
	}
}

func TestEngineRunUntilLeavesClockAtLastEventWhenDrained(t *testing.T) {
	e := NewEngine()
	e.ScheduleKind(4*time.Second, noop(e), 0, nil)
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 4*time.Second {
		t.Errorf("Now() = %v, want 4s (makespan, not horizon)", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var fired int
	stop := e.RegisterKind(func(int, any) { fired++; e.Stop() })
	count := e.RegisterKind(func(int, any) { fired++ })
	e.ScheduleKind(time.Second, stop, 0, nil)
	e.ScheduleKind(2*time.Second, count, 0, nil)
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

func TestEngineCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := 0
	count := e.RegisterKind(func(int, any) { fired++ })
	h := e.ScheduleKind(time.Second, count, 0, nil)
	e.ScheduleKind(2*time.Second, count, 0, nil)
	h.Cancel()
	if !h.Cancelled() {
		t.Error("handle does not report cancelled")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (cancelled event ran?)", fired)
	}
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	var h EventHandle
	cancel := e.RegisterKind(func(int, any) { h.Cancel() })
	count := e.RegisterKind(func(int, any) { fired++ })
	e.ScheduleKind(time.Second, cancel, 0, nil)
	h = e.ScheduleKind(2*time.Second, count, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 0 {
		t.Error("event fired despite in-run cancellation")
	}
}

func TestEngineCancelIdempotentAndZeroValue(t *testing.T) {
	var zero EventHandle
	zero.Cancel() // must not panic
	if zero.Cancelled() {
		t.Error("zero handle reports cancelled")
	}
	e := NewEngine()
	h := e.ScheduleKind(time.Second, noop(e), 0, nil)
	h.Cancel()
	h.Cancel()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	k := noop(e)
	for i := 0; i < 7; i++ {
		e.ScheduleKind(time.Duration(i)*time.Second, k, 0, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", e.Fired())
	}
}
