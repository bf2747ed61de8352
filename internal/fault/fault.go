// Package fault models machine crashes and task-attempt failures for a
// simulated cluster run, deterministically from the run's seeded RNG tree.
// Like noise.Model it is a pure model: it answers draws, and the driver
// owns every event the fault process schedules.
//
// Two failure sources are modeled, matching how Hadoop 1.x clusters fail in
// practice:
//
//   - Whole-machine crashes: each machine alternates between an up phase
//     (exponential with mean MachineMTBF) and a down phase (exponential with
//     mean MachineMTTR). A crash kills every attempt running on the machine
//     and loses any completed map output stored there; recovery returns the
//     machine to the slot pool. Scripted Scenario events can pin crashes and
//     recoveries to exact instants for reproducible test cases.
//   - Task-attempt failures: each attempt independently fails with
//     probability TaskFailProb, dying partway through its service time.
//     The driver retries a failed task up to MaxAttempts times before
//     failing the whole job (Hadoop's mapred.map.max.attempts), and
//     blacklists machines that accumulate too many failures.
//
// The Injector draws every random quantity from one dedicated RNG stream
// forked off the simulation seed, so enabling faults never perturbs the
// noise, workload or scheduling streams, and two runs with the same seed
// produce bit-identical failure timelines.
package fault

import (
	"fmt"
	"time"

	"eant/internal/sim"
)

// EventKind distinguishes scripted crash from recovery events.
type EventKind int

// Scripted event kinds.
const (
	Crash EventKind = iota + 1
	Recover
)

// String returns "crash" or "recover".
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scripted fault: machine Machine crashes or recovers at
// virtual time At. Scripted events compose with the stochastic MTBF/MTTR
// process; crashing an already-dead machine (or recovering a live one) is
// a no-op at the driver.
type Event struct {
	At      time.Duration
	Machine int
	Kind    EventKind
}

// Config parameterizes fault injection. The zero value disables every
// failure source, and a disabled configuration is a strict no-op: the
// driver schedules no events and draws nothing from the fault stream.
type Config struct {
	// MachineMTBF is the mean up-time between a machine's crashes
	// (exponentially distributed per machine). Zero disables stochastic
	// crashes.
	MachineMTBF time.Duration
	// MachineMTTR is the mean repair time of a crashed machine
	// (exponentially distributed). Defaults to 5 minutes.
	MachineMTTR time.Duration
	// TaskFailProb is the probability that one task attempt fails partway
	// through execution (JVM crash, disk error, bad record). Zero disables
	// attempt failures.
	TaskFailProb float64
	// MaxAttempts is how many times one logical task may fail before its
	// job is failed, Hadoop's mapred.map.max.attempts. Defaults to 4.
	MaxAttempts int
	// BlacklistThreshold is how many attempt failures a machine
	// accumulates before the JobTracker stops assigning to it for
	// BlacklistCooldown. Zero disables blacklisting.
	BlacklistThreshold int
	// BlacklistCooldown is how long a blacklisted machine sits out.
	// Defaults to 10 minutes.
	BlacklistCooldown time.Duration
	// Scenario lists scripted crash/recover events, applied in addition
	// to (or instead of) the stochastic process.
	Scenario []Event
}

// SetDefaults fills unset secondary knobs of an enabled configuration.
func (c *Config) SetDefaults() {
	if c.MachineMTTR <= 0 {
		c.MachineMTTR = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BlacklistThreshold > 0 && c.BlacklistCooldown <= 0 {
		c.BlacklistCooldown = 10 * time.Minute
	}
}

// Enabled reports whether any failure source is active.
func (c Config) Enabled() bool {
	return c.MachineMTBF > 0 || c.TaskFailProb > 0 || len(c.Scenario) > 0
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.MachineMTBF < 0:
		return fmt.Errorf("fault: negative MTBF %v", c.MachineMTBF)
	case c.MachineMTTR < 0:
		return fmt.Errorf("fault: negative MTTR %v", c.MachineMTTR)
	case c.TaskFailProb < 0 || c.TaskFailProb > 1:
		return fmt.Errorf("fault: task failure probability %v outside [0,1]", c.TaskFailProb)
	case c.MaxAttempts < 0:
		return fmt.Errorf("fault: negative max attempts %d", c.MaxAttempts)
	case c.BlacklistThreshold < 0:
		return fmt.Errorf("fault: negative blacklist threshold %d", c.BlacklistThreshold)
	}
	for _, ev := range c.Scenario {
		if ev.At < 0 {
			return fmt.Errorf("fault: scenario event at negative time %v", ev.At)
		}
		if ev.Machine < 0 {
			return fmt.Errorf("fault: scenario event for negative machine %d", ev.Machine)
		}
		if ev.Kind != Crash && ev.Kind != Recover {
			return fmt.Errorf("fault: scenario event with unknown kind %d", int(ev.Kind))
		}
	}
	return nil
}

// Injector answers the fault draws of one run: crash-process phase spans
// and per-attempt failures. All randomness comes from the injector's own
// RNG stream.
type Injector struct {
	cfg Config
	rng *sim.RNG
}

// NewInjector returns an injector for the given configuration; cfg must
// validate. Defaults are applied for enabled configurations.
func NewInjector(cfg Config, rng *sim.RNG) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Enabled() {
		cfg.SetDefaults()
	}
	if rng == nil {
		return nil, fmt.Errorf("fault: nil RNG")
	}
	return &Injector{cfg: cfg, rng: rng}, nil
}

// Config returns the injector's (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Reset reconfigures the injector in place and rewinds its RNG stream to
// the given seed, exactly reproducing a fresh NewInjector(cfg, NewRNG(seed)).
func (in *Injector) Reset(cfg Config, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Enabled() {
		cfg.SetDefaults()
	}
	in.cfg = cfg
	in.rng.Reseed(seed)
	return nil
}

// Enabled reports whether the injector will do anything at all.
func (in *Injector) Enabled() bool { return in.cfg.Enabled() }

// minPhase floors MTBF/MTTR draws so a machine can never flap within a
// single event instant (zero-length phases would loop the event queue at
// one timestamp).
const minPhase = time.Second

// UpPhase draws one machine's next up-time span (mean MachineMTBF). The
// driver draws first-crash times in machine-ID order, then one phase per
// crash or recovery as the chain unfolds, so the crash timeline is a pure
// function of the fault stream.
func (in *Injector) UpPhase() time.Duration { return in.phase(in.cfg.MachineMTBF) }

// DownPhase draws one crashed machine's repair span (mean MachineMTTR).
func (in *Injector) DownPhase() time.Duration { return in.phase(in.cfg.MachineMTTR) }

// phase draws one exponential up/down span with the given mean, floored.
func (in *Injector) phase(mean time.Duration) time.Duration {
	d := time.Duration(in.rng.Exp(mean.Seconds()) * float64(time.Second))
	if d < minPhase {
		d = minPhase
	}
	return d
}

// AttemptFails draws whether one task attempt will fail mid-execution.
func (in *Injector) AttemptFails() bool {
	return in.cfg.TaskFailProb > 0 && in.rng.Bernoulli(in.cfg.TaskFailProb)
}

// FailurePoint draws the fraction of an attempt's service time at which a
// doomed attempt dies, uniform in [0.05, 0.95]: a failing attempt always
// burns some real work (and energy) before dying, and always dies before
// it would have finished.
func (in *Injector) FailurePoint() float64 {
	return in.rng.Uniform(0.05, 0.95)
}

// MaxAttempts returns the per-task retry limit (after defaulting).
func (in *Injector) MaxAttempts() int {
	if in.cfg.MaxAttempts <= 0 {
		return 4
	}
	return in.cfg.MaxAttempts
}
