package mapreduce_test

import (
	"math"
	"testing"
	"time"

	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/sched"
)

// FuzzConfigValidate throws arbitrary knob combinations at the driver
// configuration: Validate must never panic, every float of a configuration
// it accepts must be finite, and any configuration it accepts must
// construct a driver without panicking (setDefaults has to repair every
// degenerate-but-valid value Validate lets through).
func FuzzConfigValidate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(int64(300_000_000_000), -1.0, 0.0, 0.0, 0.0, 0.0, int64(0), int64(0), 0.0, 0, 0, int64(0), int64(1), int64(30_000_000_000), 1)
	f.Add(int64(0), 2.0, 0.5, 2.0, 0.1, 3.0, int64(60_000_000_000), int64(-1), 1.1, -4, 2, int64(-1), int64(7), int64(0), -3)
	f.Add(int64(3_000_000_000), 0.0, -0.1, 0.9, 1e155, -2.0, int64(600_000_000_000), int64(120_000_000_000), 0.02, 4, 3, int64(600_000_000_000), int64(42), int64(1), 1)
	f.Add(int64(0), nan, nan, nan, nan, nan, int64(0), int64(0), nan, 0, 0, int64(0), int64(1), int64(1), 1)
	f.Add(int64(0), -inf, inf, 0.0, inf, inf, int64(0), int64(0), 0.0, 0, 0, int64(0), int64(1), int64(1), 1)
	f.Add(int64(0), -1.0, 0.0, 0.0, 0.0, nan, int64(0), int64(0), 0.0, 0, 0, int64(0), int64(1), int64(1), 1)
	f.Add(int64(0), -1.0, 0.0, 0.0, 0.0, 0.0, int64(0), int64(0), nan, 0, 0, int64(0), int64(1), int64(1), -1)
	f.Add(int64(2_999_999_999), -1.0, 0.0, 0.0, 0.0, 0.0, int64(0), int64(0), 0.0, 0, 0, int64(0), int64(1), int64(30_000_000_000), 1)
	f.Fuzz(func(t *testing.T,
		controlInterval int64,
		forcedLocal, durationCV, stragglerProb, measurementCV, sleepWatts float64,
		mtbf, mttr int64, taskFailProb float64,
		maxAttempts, blacklistThreshold int, blacklistCooldown int64,
		seed, idleTimeout int64, coveringPerType int,
	) {
		cfg := mapreduce.Config{
			ControlInterval:     time.Duration(controlInterval),
			ForcedLocalFraction: forcedLocal,
			Seed:                seed,
			Noise: noise.Config{
				DurationCV:    durationCV,
				StragglerProb: stragglerProb,
				StragglerMin:  1,
				StragglerMax:  2,
				MeasurementCV: measurementCV,
			},
			Power: mapreduce.PowerMgmt{
				Enabled:         coveringPerType >= 0,
				IdleTimeout:     time.Duration(idleTimeout),
				SleepWatts:      sleepWatts,
				CoveringPerType: coveringPerType,
			},
			Fault: fault.Config{
				MachineMTBF:        time.Duration(mtbf),
				MachineMTTR:        time.Duration(mttr),
				TaskFailProb:       taskFailProb,
				MaxAttempts:        maxAttempts,
				BlacklistThreshold: blacklistThreshold,
				BlacklistCooldown:  time.Duration(blacklistCooldown),
			},
		}
		if err := cfg.Validate(); err != nil {
			return // rejected configurations need no further guarantees
		}
		// A zero or negative interval takes DefaultConfig's value.
		ci := cfg.ControlInterval
		if ci <= 0 {
			ci = mapreduce.DefaultConfig().ControlInterval
		}
		if ci < mapreduce.Heartbeat {
			t.Fatalf("Validate accepted control interval %v below the %v heartbeat (%+v)", ci, mapreduce.Heartbeat, cfg)
		}
		for _, x := range []float64{cfg.ForcedLocalFraction, cfg.Power.SleepWatts,
			cfg.Noise.DurationCV, cfg.Noise.StragglerProb, cfg.Noise.MeasurementCV, cfg.Fault.TaskFailProb} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("Validate accepted non-finite %v (%+v)", x, cfg)
			}
		}
		if _, err := mapreduce.NewDriver(smallCluster(), sched.NewFIFO(), cfg); err != nil {
			t.Fatalf("Validate accepted a config NewDriver rejects: %v (%+v)", err, cfg)
		}
	})
}
