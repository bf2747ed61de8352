package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"eant/internal/parallel"
	"eant/internal/tabwrite"
)

// withWorkers runs fn under a process-wide worker cap, restoring the
// default afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	parallel.SetDefaultWorkers(n)
	defer parallel.SetDefaultWorkers(0)
	fn()
}

func render(t *testing.T, tables ...*tabwrite.Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// goldenFig8Config is a reduced Fig. 8 setup: enough cells (4 schedulers
// × 2 seeds) to exercise the pool with a meaningful fan-out while keeping
// the double run fast.
func goldenFig8Config() Fig8Config {
	return Fig8Config{Jobs: 20, Seeds: 2, MeanInterarrival: 30 * time.Second}
}

// TestFig8ParallelMatchesSequential is the golden equivalence test: the
// same sweep run fully sequentially (workers = 1) and on a many-worker
// pool must produce bit-identical results — same structs under
// reflect.DeepEqual and byte-identical rendered tables.
func TestFig8ParallelMatchesSequential(t *testing.T) {
	var seq, par *Fig8Result
	withWorkers(t, 1, func() {
		r, err := Fig8(goldenFig8Config())
		if err != nil {
			t.Fatal(err)
		}
		seq = r
	})
	withWorkers(t, 8, func() {
		r, err := Fig8(goldenFig8Config())
		if err != nil {
			t.Fatal(err)
		}
		par = r
	})
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel Fig8 result differs from sequential run")
	}
	seqText := render(t, seq.TableA(), seq.TableB(), seq.TableC())
	parText := render(t, par.TableA(), par.TableB(), par.TableC())
	if seqText != parText {
		t.Errorf("rendered tables differ:\n--- sequential ---\n%s--- parallel ---\n%s", seqText, parText)
	}
}

// TestFig11ParallelMatchesSequential repeats the golden check on the
// Fig. 11b convergence sweep, whose per-cell result flows through trail
// snapshots and the convergence detector rather than plain energy sums.
func TestFig11ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("double Fig11b run in -short mode")
	}
	var seq, par *Fig11Result
	withWorkers(t, 1, func() {
		r, err := Fig11b()
		if err != nil {
			t.Fatal(err)
		}
		seq = r
	})
	withWorkers(t, 8, func() {
		r, err := Fig11b()
		if err != nil {
			t.Fatal(err)
		}
		par = r
	})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel Fig11b result differs from sequential run:\nseq: %+v\npar: %+v", seq, par)
	}
	if got, want := render(t, par.Table()), render(t, seq.Table()); got != want {
		t.Errorf("rendered tables differ:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestSweepsConcurrently drives several experiment sweeps at once on a
// many-worker pool. Run with -race this is the proof that independent
// simulation cells share no mutable state; each sweep's own output is
// additionally sanity-checked.
func TestSweepsConcurrently(t *testing.T) {
	withWorkers(t, 4, func() {
		type sweep struct {
			name string
			run  func() error
		}
		sweeps := []sweep{
			{"fig4", func() error {
				r, err := Fig4()
				if err == nil && len(r.Rows) != 6 {
					t.Errorf("fig4: %d rows, want 6", len(r.Rows))
				}
				return err
			}},
			{"fig8", func() error {
				r, err := Fig8(goldenFig8Config())
				if err == nil && len(r.Results) != 4 {
					t.Errorf("fig8: %d results, want 4", len(r.Results))
				}
				return err
			}},
			{"consolidation", func() error {
				r, err := Consolidation()
				if err == nil && len(r.Rows) != 4 {
					t.Errorf("consolidation: %d rows, want 4", len(r.Rows))
				}
				return err
			}},
			{"failures", func() error {
				cfg := DefaultFailureSweepConfig()
				cfg.Jobs = 8
				cfg.MTBFs = cfg.MTBFs[:2]
				cfg.Schedulers = cfg.Schedulers[:2]
				r, err := FailureSweepRun(cfg)
				if err == nil && len(r.Points) != 4 {
					t.Errorf("failures: %d points, want 4", len(r.Points))
				}
				return err
			}},
		}
		if !testing.Short() {
			sweeps = append(sweeps,
				sweep{"fig11a", func() error { _, err := Fig11a(); return err }},
				sweep{"fig11b", func() error { _, err := Fig11b(); return err }},
				sweep{"fig12a", func() error { _, err := Fig12a(); return err }},
				sweep{"fig12b", func() error { _, err := Fig12b(); return err }},
			)
		}
		// The sweeps themselves fan out on the shared default pool; running
		// them through Map stacks sweep-level on top of cell-level
		// concurrency.
		if _, err := parallel.Map(len(sweeps), len(sweeps), func(i int) (struct{}, error) {
			if err := sweeps[i].run(); err != nil {
				t.Errorf("%s: %v", sweeps[i].name, err)
			}
			return struct{}{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
