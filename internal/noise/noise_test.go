package noise

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := Off().Validate(); err != nil {
		t.Errorf("off config invalid: %v", err)
	}
	bad := []Config{
		{DurationCV: -1},
		{MeasurementCV: -0.1},
		{StragglerProb: 1.5},
		{StragglerProb: 0.1, StragglerMin: 0.5, StragglerMax: 2},
		{StragglerProb: 0.1, StragglerMin: 3, StragglerMax: 2},
		{DurationCV: math.NaN()},
		{DurationCV: math.Inf(1)},
		{DurationCV: 1e155},
		{MeasurementCV: math.NaN()},
		{StragglerProb: math.NaN()},
		{StragglerMin: math.NaN()},
		{StragglerProb: 0.1, StragglerMin: 1, StragglerMax: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEnabled(t *testing.T) {
	if Off().Enabled() {
		t.Error("Off() reports enabled")
	}
	if !Default().Enabled() {
		t.Error("Default() reports disabled")
	}
	if !(Config{MeasurementCV: 0.1}).Enabled() {
		t.Error("measurement-only config reports disabled")
	}
}

func TestNewModelRejectsInvalid(t *testing.T) {
	if _, err := NewModel(Config{DurationCV: -1}, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestOffModelIsDeterministic(t *testing.T) {
	m := MustNewModel(Off(), 1)
	for i := 0; i < 100; i++ {
		if f := m.DurationFactor(); f != 1 {
			t.Fatalf("DurationFactor = %v with noise off", f)
		}
		if f := m.MeasurementFactor(); f != 1 {
			t.Fatalf("MeasurementFactor = %v with noise off", f)
		}
	}
}

func TestDurationFactorStatistics(t *testing.T) {
	m := MustNewModel(Default(), 2)
	const n = 100000
	var sum float64
	stragglers := 0
	for i := 0; i < n; i++ {
		f := m.DurationFactor()
		if f <= 0 {
			t.Fatalf("non-positive duration factor %v", f)
		}
		if f > 1.7 {
			stragglers++
		}
		sum += f
	}
	mean := sum / n
	// Mean ≈ 1 + stragglerProb·(midpoint−1) ≈ 1 + 0.05·1.5 = 1.075.
	if mean < 1.0 || mean > 1.2 {
		t.Errorf("duration factor mean = %.3f, want ≈ 1.075", mean)
	}
	frac := float64(stragglers) / n
	if math.Abs(frac-0.05) > 0.02 {
		t.Errorf("straggler fraction = %.3f, want ≈ 0.05", frac)
	}
}

func TestMeasurementFactorMeanOne(t *testing.T) {
	m := MustNewModel(Default(), 3)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		f := m.MeasurementFactor()
		if f <= 0 {
			t.Fatalf("non-positive measurement factor %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("measurement factor mean = %.4f, want ≈ 1", mean)
	}
}

func TestModelsWithSameSeedAgree(t *testing.T) {
	a := MustNewModel(Default(), 7)
	b := MustNewModel(Default(), 7)
	for i := 0; i < 1000; i++ {
		if a.DurationFactor() != b.DurationFactor() {
			t.Fatal("identically-seeded models diverged")
		}
	}
}

// MustNewModel is NewModel for static configurations.
func MustNewModel(cfg Config, seed int64) *Model {
	m, err := NewModel(cfg, seed)
	if err != nil {
		panic(err)
	}
	return m
}
