// Package noise injects the "system noise" the paper defines in §IV-D:
// transient, anomalous task behaviour attributed to data skew, network
// congestion and similar effects. It manifests as (a) multiplicative jitter
// on task duration, (b) straggler tasks running several times slower than
// expected, and (c) fluctuation in the CPU-utilization samples the
// TaskTracker reports, which corrupts the Eq. 2 energy estimate. The
// exchange strategies (machine-level, job-level) exist to average this
// noise away; Figs. 7, 10 and 11 quantify it.
package noise

import (
	"fmt"

	"eant/internal/sim"
)

// Config parameterizes the noise model. The zero value disables all noise.
type Config struct {
	// DurationCV is the coefficient of variation of the mean-1 lognormal
	// factor applied to every task's service time (data skew).
	DurationCV float64
	// StragglerProb is the probability that a task becomes a straggler.
	StragglerProb float64
	// StragglerMin/Max bound the uniform slowdown factor of stragglers.
	// The paper's Fig. 7 shows spikes around 2–3× the median energy.
	StragglerMin float64
	StragglerMax float64
	// MeasurementCV is the coefficient of variation of the mean-1
	// lognormal factor applied to reported CPU-utilization samples
	// (metering/heartbeat fluctuation). It corrupts estimates only, never
	// true power draw.
	MeasurementCV float64
}

// Default is the calibration used by the evaluation experiments: enough
// noise that per-task energy estimates scatter like Fig. 7 (occasional
// ≈ 3× spikes) and single-interval feedback is unreliable, but the
// underlying machine ordering stays recoverable by averaging.
func Default() Config {
	return Config{
		DurationCV:    0.15,
		StragglerProb: 0.05,
		StragglerMin:  1.8,
		StragglerMax:  3.2,
		MeasurementCV: 0.10,
	}
}

// Off returns the no-noise configuration.
func Off() Config { return Config{} }

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.DurationCV < 0 || c.MeasurementCV < 0:
		return fmt.Errorf("noise: negative coefficient of variation")
	case c.StragglerProb < 0 || c.StragglerProb > 1:
		return fmt.Errorf("noise: straggler probability %v outside [0,1]", c.StragglerProb)
	case c.StragglerProb > 0 && (c.StragglerMin < 1 || c.StragglerMax < c.StragglerMin):
		return fmt.Errorf("noise: straggler factor bounds [%v,%v] invalid", c.StragglerMin, c.StragglerMax)
	}
	return nil
}

// Enabled reports whether any noise source is active.
func (c Config) Enabled() bool {
	return c.DurationCV > 0 || c.StragglerProb > 0 || c.MeasurementCV > 0
}

// Model draws noise factors from a dedicated RNG stream.
type Model struct {
	cfg Config
	rng *sim.RNG
	// duration and measurement are the lognormal parameters of
	// cfg.DurationCV and cfg.MeasurementCV, derived with cfg.
	duration, measurement sim.Noise
}

// NewModel returns a noise model; cfg must validate.
func NewModel(cfg Config, rng *sim.RNG) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{rng: rng}
	m.configure(cfg)
	return m, nil
}

// configure adopts cfg and derives its lognormal parameters.
func (m *Model) configure(cfg Config) {
	m.cfg = cfg
	m.duration = sim.NewNoise(cfg.DurationCV)
	m.measurement = sim.NewNoise(cfg.MeasurementCV)
}

// MustNewModel is NewModel for static configurations.
func MustNewModel(cfg Config, rng *sim.RNG) *Model {
	m, err := NewModel(cfg, rng)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Reset reconfigures the model in place and rewinds its RNG stream to the
// given seed, exactly reproducing a fresh NewModel(cfg, NewRNG(seed)).
func (m *Model) Reset(cfg Config, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.configure(cfg)
	m.rng.Reseed(seed)
	return nil
}

// StragglerCapSeconds bounds the absolute extra delay a straggler adds.
// Hadoop's speculative execution re-runs tasks that fall far behind, so a
// straggler can never stretch a long task unboundedly; 300 s of added
// delay models the window before a speculative copy would overtake it.
const StragglerCapSeconds = 300

// DurationFactor draws the service-time multiplier for one task: mean-1
// jitter, stretched further if the task straggles. Always ≥ a small
// positive bound so durations stay positive. Equivalent to
// DurationFactorFor with a short base duration.
func (m *Model) DurationFactor() float64 {
	return m.DurationFactorFor(1)
}

// DurationFactorFor draws the service-time multiplier for a task whose
// noise-free duration is baseSecs. Straggler stretch is multiplicative for
// short tasks but capped at StragglerCapSeconds of absolute delay, the
// effect speculative execution has on long-running stragglers.
func (m *Model) DurationFactorFor(baseSecs float64) float64 {
	f := m.rng.NoiseFrom(m.duration)
	if m.rng.Bernoulli(m.cfg.StragglerProb) {
		stretch := m.rng.Uniform(m.cfg.StragglerMin, m.cfg.StragglerMax)
		extra := (stretch - 1) * baseSecs
		if baseSecs > 0 && extra > StragglerCapSeconds {
			stretch = 1 + StragglerCapSeconds/baseSecs
		}
		f *= stretch
	}
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// MeasurementFactor draws the multiplier applied to one reported
// CPU-utilization sample.
func (m *Model) MeasurementFactor() float64 {
	return m.rng.NoiseFrom(m.measurement)
}
