package power

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"eant/internal/cluster"
)

func TestMeterIdleIntegration(t *testing.T) {
	c := cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: 1})
	mt := NewMeter(c)
	mt.SyncAll(100 * time.Second)
	want := cluster.SpecDesktop.IdleWatts * 100
	if got := mt.TotalJoules(); math.Abs(got-want) > 1e-6 {
		t.Errorf("idle energy = %v J, want %v J", got, want)
	}
}

func TestMeterPiecewiseIntegration(t *testing.T) {
	c := cluster.MustNew(cluster.Group{Spec: cluster.SpecDesktop, Count: 1})
	m := c.Machine(0)
	mt := NewMeter(c)

	// 10 s idle, then 20 s at util 0.25, then 5 s idle again.
	mt.Sync(m, 10*time.Second)
	m.AcquireMap(0.25)
	mt.Sync(m, 30*time.Second)
	m.ReleaseMap(0.25)
	mt.Sync(m, 35*time.Second)

	spec := cluster.SpecDesktop
	want := spec.IdleWatts*10 + spec.PowerAt(0.25)*20 + spec.IdleWatts*5
	if got := mt.MachineJoules(0); math.Abs(got-want) > 1e-6 {
		t.Errorf("energy = %v J, want %v J", got, want)
	}
}

func TestMeterSyncBackwardsPanics(t *testing.T) {
	c := cluster.MustNew(cluster.Group{Spec: cluster.SpecAtom, Count: 1})
	mt := NewMeter(c)
	mt.Sync(c.Machine(0), 10*time.Second)
	defer func() {
		if recover() == nil {
			t.Error("backwards sync did not panic")
		}
	}()
	mt.Sync(c.Machine(0), 5*time.Second)
}

func TestMeterTypeJoules(t *testing.T) {
	c := cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecAtom, Count: 1},
	)
	mt := NewMeter(c)
	mt.SyncAll(10 * time.Second)
	byType := mt.TypeJoules()
	wantDesk := 2 * cluster.SpecDesktop.IdleWatts * 10
	wantAtom := cluster.SpecAtom.IdleWatts * 10
	if math.Abs(byType["Desktop"]-wantDesk) > 1e-6 {
		t.Errorf("Desktop energy = %v, want %v", byType["Desktop"], wantDesk)
	}
	if math.Abs(byType["Atom"]-wantAtom) > 1e-6 {
		t.Errorf("Atom energy = %v, want %v", byType["Atom"], wantAtom)
	}
	if math.Abs(mt.TotalJoules()-(wantDesk+wantAtom)) > 1e-6 {
		t.Error("TotalJoules does not equal sum of type energies")
	}
}

// TestMeterResetEqualsNew: a meter that integrated a busy stretch and is
// Reset integrates the next run exactly as a new meter does, to the bit,
// in every accumulator. The rerun's first sync, at 7 s, would panic if
// Reset kept the old 90 s sync point.
func TestMeterResetEqualsNew(t *testing.T) {
	c := cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecAtom, Count: 1},
	)
	m := c.Machine(1)
	run := func(mt *Meter) {
		mt.Sync(m, 7*time.Second)
		m.AcquireMap(0.3)
		mt.Sync(m, 19*time.Second)
		m.ReleaseMap(0.3)
		mt.SyncAll(25 * time.Second)
	}
	used := NewMeter(c)
	run(used)
	used.SyncAll(90 * time.Second)
	used.Reset()
	run(used)
	fresh := NewMeter(c)
	run(fresh)
	if got, want := used.TotalJoules(), fresh.TotalJoules(); got != want {
		t.Errorf("TotalJoules after Reset = %v, new meter %v", got, want)
	}
	for id := range c.Size() {
		if got, want := used.MachineJoules(id), fresh.MachineJoules(id); got != want {
			t.Errorf("machine %d joules after Reset = %v, new meter %v", id, got, want)
		}
		if got, want := used.AvgUtilization(id, 25*time.Second), fresh.AvgUtilization(id, 25*time.Second); got != want {
			t.Errorf("machine %d utilization after Reset = %v, new meter %v", id, got, want)
		}
	}
}

// TestMeterAvgUtilization: one machine at utilization 0.25 for 20 of 40 s
// averages 0.125 over the 40 s horizon, its idle neighbour 0, and a
// non-positive horizon reads 0. Per type, the desktops average 0.0625.
func TestMeterAvgUtilization(t *testing.T) {
	c := cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecAtom, Count: 1},
	)
	m := c.Machine(0)
	mt := NewMeter(c)
	mt.Sync(m, 10*time.Second)
	m.AcquireMap(0.25)
	mt.Sync(m, 30*time.Second)
	m.ReleaseMap(0.25)
	mt.SyncAll(40 * time.Second)

	if got := mt.AvgUtilization(0, 40*time.Second); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("busy machine utilization = %v, want 0.125", got)
	}
	if got := mt.AvgUtilization(1, 40*time.Second); got != 0 {
		t.Errorf("idle machine utilization = %v, want 0", got)
	}
	if got := mt.AvgUtilization(0, 0); got != 0 {
		t.Errorf("utilization over a zero horizon = %v, want 0", got)
	}
	byType := mt.TypeAvgUtilization(40 * time.Second)
	if len(byType) != 2 {
		t.Fatalf("TypeAvgUtilization has %d types, want 2: %v", len(byType), byType)
	}
	if got := byType["Desktop"]; math.Abs(got-0.0625) > 1e-12 {
		t.Errorf("Desktop utilization = %v, want 0.0625", got)
	}
	if got := byType["Atom"]; got != 0 {
		t.Errorf("Atom utilization = %v, want 0", got)
	}
}

func TestEstimateTaskJoulesMatchesEq2(t *testing.T) {
	spec := cluster.SpecXeonE5
	samples := []TaskSample{
		{Util: 0.04, Dt: 3 * time.Second},
		{Util: 0.02, Dt: 3 * time.Second},
	}
	idleShare := spec.IdleWatts / float64(spec.Slots())
	want := (idleShare+spec.AlphaWatts*0.04)*3 + (idleShare+spec.AlphaWatts*0.02)*3
	if got := EstimateTaskJoules(spec, samples); math.Abs(got-want) > 1e-9 {
		t.Errorf("estimate = %v, want %v", got, want)
	}
}

func TestEstimateTaskJoulesNegativeUtilClamped(t *testing.T) {
	spec := cluster.SpecDesktop
	got := EstimateTaskJoules(spec, []TaskSample{{Util: -1, Dt: time.Second}})
	want := spec.IdleWatts / float64(spec.Slots())
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("estimate with negative util = %v, want idle share %v", got, want)
	}
}

func TestEstimateUniformEquivalence(t *testing.T) {
	spec := cluster.SpecT420
	a := EstimateTaskJoulesUniform(spec, 0.1, 30*time.Second)
	b := EstimateTaskJoules(spec, []TaskSample{
		{Util: 0.1, Dt: 10 * time.Second},
		{Util: 0.1, Dt: 20 * time.Second},
	})
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("uniform %v != sampled %v", a, b)
	}
}

func TestEstimateNonNegativeProperty(t *testing.T) {
	spec := cluster.SpecT110
	f := func(utils []float64, secs []uint8) bool {
		n := len(utils)
		if len(secs) < n {
			n = len(secs)
		}
		samples := make([]TaskSample, 0, n)
		for i := 0; i < n; i++ {
			u := utils[i]
			if !math.IsNaN(u) && !math.IsInf(u, 0) {
				u = math.Mod(u, 2) // keep within the model's domain, sign preserved
			} else {
				u = 0
			}
			samples = append(samples, TaskSample{
				Util: u,
				Dt:   time.Duration(secs[i]) * time.Second,
			})
		}
		return EstimateTaskJoules(spec, samples) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEstimateAdditivityProperty(t *testing.T) {
	// Energy of a concatenated sample list equals the sum of the parts.
	spec := cluster.SpecT620
	f := func(a, b []float64) bool {
		mk := func(us []float64) []TaskSample {
			out := make([]TaskSample, len(us))
			for i, u := range us {
				out[i] = TaskSample{Util: math.Abs(math.Mod(u, 1)), Dt: time.Second}
			}
			return out
		}
		sa, sb := mk(a), mk(b)
		whole := EstimateTaskJoules(spec, append(append([]TaskSample{}, sa...), sb...))
		parts := EstimateTaskJoules(spec, sa) + EstimateTaskJoules(spec, sb)
		return math.Abs(whole-parts) < 1e-6*(1+whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLinearRecoversModel(t *testing.T) {
	// Synthesize observations from a known envelope and recover it.
	spec := cluster.SpecXeonE5
	var utils, watts []float64
	for u := 0.0; u <= 1.0; u += 0.1 {
		utils = append(utils, u)
		watts = append(watts, spec.PowerAt(u))
	}
	idle, alpha, err := FitLinear(utils, watts)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if math.Abs(idle-spec.IdleWatts) > 1e-6 {
		t.Errorf("idle = %v, want %v", idle, spec.IdleWatts)
	}
	if math.Abs(alpha-spec.AlphaWatts) > 1e-6 {
		t.Errorf("alpha = %v, want %v", alpha, spec.AlphaWatts)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, _, err := FitLinear([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := FitLinear([]float64{1}, []float64{2}); err == nil {
		t.Error("single observation accepted")
	}
	if _, _, err := FitLinear([]float64{0.5, 0.5}, []float64{10, 20}); err == nil {
		t.Error("zero-variance utilizations accepted")
	}
}

// FitLinear identifies (P_idle, α) from (utilization, watts) observations by
// ordinary least squares, the "standard system identification technique"
// of §IV-B. It needs at least two distinct utilization values.
func FitLinear(utils, watts []float64) (idle, alpha float64, err error) {
	if len(utils) != len(watts) {
		return 0, 0, fmt.Errorf("power: FitLinear got %d utils and %d watts", len(utils), len(watts))
	}
	n := float64(len(utils))
	if n < 2 {
		return 0, 0, fmt.Errorf("power: FitLinear needs ≥2 observations, got %d", len(utils))
	}
	var sumU, sumW, sumUU, sumUW float64
	for i := range utils {
		sumU += utils[i]
		sumW += watts[i]
		sumUU += utils[i] * utils[i]
		sumUW += utils[i] * watts[i]
	}
	den := n*sumUU - sumU*sumU
	// An exact-zero guard before dividing: a tolerance would reject valid
	// near-constant fits.
	if den == 0 {
		return 0, 0, fmt.Errorf("power: FitLinear observations have no utilization variance")
	}
	alpha = (n*sumUW - sumU*sumW) / den
	idle = (sumW - alpha*sumU) / n
	return idle, alpha, nil
}
