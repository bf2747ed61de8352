package fault

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestEventKindString(t *testing.T) {
	if Crash.String() != "crash" || Recover.String() != "recover" {
		t.Error("EventKind.String mismatch")
	}
	if EventKind(7).String() != "EventKind(7)" {
		t.Error("unknown kind string mismatch")
	}
}

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"zero", Config{}, false},
		{"mtbf", Config{MachineMTBF: time.Minute}, true},
		{"taskFail", Config{TaskFailProb: 0.1}, true},
		{"scenario", Config{Scenario: []Event{{At: 1, Machine: 0, Kind: Crash}}}, true},
		// Secondary knobs alone never enable injection.
		{"mttrOnly", Config{MachineMTTR: time.Minute}, false},
		{"attemptsOnly", Config{MaxAttempts: 2}, false},
		{"blacklistOnly", Config{BlacklistThreshold: 3}, false},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"full", Config{
			MachineMTBF: time.Hour, MachineMTTR: time.Minute,
			TaskFailProb: 0.5, MaxAttempts: 4,
			BlacklistThreshold: 3, BlacklistCooldown: time.Minute,
			Scenario: []Event{{At: time.Second, Machine: 1, Kind: Recover}},
		}, true},
		{"negMTBF", Config{MachineMTBF: -time.Second}, false},
		{"negMTTR", Config{MachineMTTR: -time.Second}, false},
		{"probLow", Config{TaskFailProb: -0.1}, false},
		{"probHigh", Config{TaskFailProb: 1.1}, false},
		{"probOne", Config{TaskFailProb: 1}, true},
		{"probNaN", Config{TaskFailProb: math.NaN()}, false},
		{"negAttempts", Config{MaxAttempts: -1}, false},
		{"negThreshold", Config{BlacklistThreshold: -1}, false},
		{"eventNegTime", Config{Scenario: []Event{{At: -time.Second, Machine: 0, Kind: Crash}}}, false},
		{"eventNegMachine", Config{Scenario: []Event{{At: 0, Machine: -1, Kind: Crash}}}, false},
		{"eventBadKind", Config{Scenario: []Event{{At: 0, Machine: 0}}}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSetDefaultsFillsSecondaryKnobs(t *testing.T) {
	cfg := Config{MachineMTBF: time.Hour, BlacklistThreshold: 2}
	cfg.SetDefaults()
	if cfg.MachineMTTR != 5*time.Minute {
		t.Errorf("MTTR default = %v, want 5m", cfg.MachineMTTR)
	}
	if cfg.MaxAttempts != 4 {
		t.Errorf("MaxAttempts default = %d, want 4", cfg.MaxAttempts)
	}
	if cfg.BlacklistCooldown != 10*time.Minute {
		t.Errorf("BlacklistCooldown default = %v, want 10m", cfg.BlacklistCooldown)
	}

	// No threshold → cooldown stays unset.
	cfg = Config{MachineMTBF: time.Hour}
	cfg.SetDefaults()
	if cfg.BlacklistCooldown != 0 {
		t.Errorf("cooldown defaulted without a threshold: %v", cfg.BlacklistCooldown)
	}

	// Explicit values survive.
	cfg = Config{MachineMTTR: time.Second, MaxAttempts: 9}
	cfg.SetDefaults()
	if cfg.MachineMTTR != time.Second || cfg.MaxAttempts != 9 {
		t.Errorf("SetDefaults clobbered explicit values: %+v", cfg)
	}
}

func TestNewInjectorRejectsBadInput(t *testing.T) {
	if _, err := NewInjector(Config{TaskFailProb: 2}, 1); err == nil {
		t.Error("invalid config accepted")
	}
	inj, err := NewInjector(Config{MachineMTBF: time.Hour}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Config().MaxAttempts; got != 4 {
		t.Errorf("injector did not default MaxAttempts: %d", got)
	}
	if inj.MaxAttempts() != 4 {
		t.Errorf("MaxAttempts() = %d, want 4", inj.MaxAttempts())
	}
}

func TestDisabledInjectorConsumesNoRNG(t *testing.T) {
	// The no-op guarantee: with faults disabled, AttemptFails must not
	// advance the stream (enabling the fault fork must never perturb runs
	// that share the parent seed).
	inj, err := NewInjector(Config{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if inj.AttemptFails() {
			t.Fatal("disabled injector reported an attempt failure")
		}
	}
	got := inj.FailurePoint()
	fresh, err := NewInjector(Config{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh.FailurePoint(); got != want {
		t.Errorf("disabled injector consumed RNG state: %v != %v", got, want)
	}
}

// phases draws n alternating up/down spans from a fresh injector — one
// machine's crash/recover chain.
func phases(t *testing.T, cfg Config, seed int64, n int) []time.Duration {
	t.Helper()
	inj, err := NewInjector(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	spans := make([]time.Duration, n)
	for i := range spans {
		if i%2 == 0 {
			spans[i] = inj.UpPhase()
		} else {
			spans[i] = inj.DownPhase()
		}
	}
	return spans
}

func TestStochasticTimelineIsDeterministic(t *testing.T) {
	cfg := Config{MachineMTBF: 10 * time.Minute, MachineMTTR: 2 * time.Minute}
	a := phases(t, cfg, 7, 200)
	if !reflect.DeepEqual(a, phases(t, cfg, 7, 200)) {
		t.Error("same seed drew different phases")
	}
	if reflect.DeepEqual(a, phases(t, cfg, 8, 200)) {
		t.Error("different seeds drew identical phases")
	}
	// Up spans follow MTBF and down spans MTTR: the sample means must order
	// the same way as the configured means.
	var up, down time.Duration
	for i, d := range a {
		if i%2 == 0 {
			up += d
		} else {
			down += d
		}
	}
	if up <= down {
		t.Errorf("total up time %v not above total down time %v at MTBF 10m, MTTR 2m", up, down)
	}
}

func TestPhaseFloor(t *testing.T) {
	// Absurdly small means must still yield phases of at least minPhase, so
	// a machine can never flap within one event instant.
	inj, err := NewInjector(Config{MachineMTBF: time.Nanosecond, MachineMTTR: time.Nanosecond}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := inj.UpPhase(); d < minPhase {
			t.Fatalf("up phase %v below floor %v", d, minPhase)
		}
		if d := inj.DownPhase(); d < minPhase {
			t.Fatalf("down phase %v below floor %v", d, minPhase)
		}
	}
}

func TestFailurePointRange(t *testing.T) {
	inj, err := NewInjector(Config{TaskFailProb: 0.5}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := inj.FailurePoint()
		if p < 0.05 || p >= 0.95 {
			t.Fatalf("failure point %v outside [0.05, 0.95)", p)
		}
	}
}

func TestAttemptFailsMatchesProbability(t *testing.T) {
	inj, err := NewInjector(Config{TaskFailProb: 0.3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, fails := 20000, 0
	for i := 0; i < n; i++ {
		if inj.AttemptFails() {
			fails++
		}
	}
	if rate := float64(fails) / float64(n); rate < 0.27 || rate > 0.33 {
		t.Errorf("empirical failure rate %.3f far from configured 0.3", rate)
	}
}

// NewInjector returns an injector drawing from a stream seeded with seed;
// cfg must validate.
func NewInjector(cfg Config, seed int64) (*Injector, error) {
	in := new(Injector)
	if err := in.Reset(cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}
