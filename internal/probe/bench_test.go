package probe

import (
	"testing"
	"time"
)

// sinkCounts defeats dead-code elimination without allocating.
var sinkCounts uint64

// disabledProbeCalls exercises every hook exactly as the driver's hot path
// does with probes off: a nil receiver behind a nil check.
func disabledProbeCalls(p *Probe) {
	if p != nil {
		p.Offer(time.Second, 1, 1, 3)
	}
	if p != nil {
		p.Draw(time.Second, 1, 2, 1, 0.5, 0.25, true)
	}
	if p != nil {
		p.Assign(time.Second, 2, 0, 1, 1, "sort", true, 10, 1)
	}
	if p != nil {
		p.Complete(2*time.Second, 2, 0, 1, 1, 10, 11, 1)
	}
	if p.ShouldSample() {
		p.Sample(time.Second, 1, "atom", 0.5, 10, 1, 1)
	}
	if p != nil {
		p.ControlTick(time.Second, 100, 4)
	}
	sinkCounts += p.Report().Events
}

// TestDisabledProbeZeroAllocs pins the headline overhead contract: with no
// probe attached, the instrumented hot path performs zero allocations.
func TestDisabledProbeZeroAllocs(t *testing.T) {
	var p *Probe
	if avg := testing.AllocsPerRun(1000, func() { disabledProbeCalls(p) }); avg != 0 {
		t.Fatalf("disabled probe path allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkDisabledProbe is the CI bench-smoke cell for the overhead
// contract (asserted to report "0 allocs/op").
func BenchmarkDisabledProbe(b *testing.B) {
	var p *Probe
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledProbeCalls(p)
	}
}

// BenchmarkEnabledProbe measures the recording cost of a probe with no
// sink: sequence numbers and histograms.
func BenchmarkEnabledProbe(b *testing.B) {
	p := New(Config{SampleEvery: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disabledProbeCalls(p)
	}
}
