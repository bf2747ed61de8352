package experiments

import (
	"testing"

	"eant/internal/cluster"
	"eant/internal/noise"
	"eant/internal/workload"
)

// TestSection1Anecdote reproduces the paper's §I motivating measurement
// in ratio form: a 50 GB Wordcount on a Core i7 desktop versus an Atom
// server. The paper reports 63 min / 183 KJ on the desktop against
// 178 min / 136 KJ on the Atom — the desktop is ~2.8× faster yet burns
// ~1.35× the energy. Absolute values are testbed-specific; the ratios are
// the calibration target.
func TestSection1Anecdote(t *testing.T) {
	run := func(spec *cluster.TypeSpec) (secs, joules float64) {
		// Machine-capability study like Fig. 1: concurrency scales with
		// cores, input scaled 1/64 like the rest of the suite.
		c := cluster.MustNew(cluster.Group{Spec: cluster.Capability(spec), Count: 1})
		cfg := defaultDriverConfig()
		cfg.Noise = noise.Off()
		cfg.ForcedLocalFraction = 1
		inputMB := 50.0 * 1024 / ScaleDown
		jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Wordcount, inputMB, 2, 0)}
		cells, err := RunAll([]Campaign{{Cluster: c, Sched: SchedFIFO, Jobs: jobs, Config: cfg}}, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		stats := cells[0]
		if len(stats.Jobs) != 1 {
			t.Fatalf("%s: job did not finish", spec.Name)
		}
		return stats.Jobs[0].CompletionTime().Seconds(), stats.TotalJoules
	}

	deskSecs, deskJ := run(cluster.SpecDesktop)
	atomSecs, atomJ := run(cluster.SpecAtom)

	timeRatio := atomSecs / deskSecs
	energyRatio := deskJ / atomJ
	t.Logf("desktop %.0fs/%.0fJ vs Atom %.0fs/%.0fJ — Atom %.2fx slower, desktop %.2fx more energy",
		deskSecs, deskJ, atomSecs, atomJ, timeRatio, energyRatio)

	// Paper ratios: time 178/63 ≈ 2.8, energy 183/136 ≈ 1.35. Accept the
	// same direction with generous bounds.
	if timeRatio < 1.5 {
		t.Errorf("Atom/desktop time ratio %.2f, want ≥ 1.5 (paper ≈ 2.8)", timeRatio)
	}
	if energyRatio < 1.05 {
		t.Errorf("desktop/Atom energy ratio %.2f, want > 1 (paper ≈ 1.35)", energyRatio)
	}
}
