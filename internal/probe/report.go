package probe

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is a probe's aggregate view: the event count plus the fixed-
// boundary histograms. Reports from independent sweep runs merge with
// MergeReports, which the parallel runner applies in submission order so
// the aggregate is bit-identical however the workers interleaved.
type Report struct {
	Events uint64 `json:"events"`
	// TaskEnergyJ buckets per-task metered energy (joules), QueueWaitS
	// task queue wait (submit → start, seconds), OfferGapS per-machine
	// offer gaps (seconds).
	TaskEnergyJ *Histogram `json:"task_energy_j"`
	QueueWaitS  *Histogram `json:"queue_wait_s"`
	OfferGapS   *Histogram `json:"offer_gap_s"`
}

// Report snapshots the probe's aggregates (deep-copied; nil-safe — a nil
// probe yields the zero Report).
func (p *Probe) Report() Report {
	if p == nil {
		return Report{}
	}
	return Report{
		Events:      p.seq,
		TaskEnergyJ: p.energy.Clone(),
		QueueWaitS:  p.wait.Clone(),
		OfferGapS:   p.gap.Clone(),
	}
}

// MergeReports folds the reports left to right into one aggregate. All
// non-nil histograms must share boundaries. Callers merging sweep results
// pass reports in submission order so the (float) histogram sums
// accumulate in a reproducible order.
func MergeReports(reports ...Report) (Report, error) {
	var out Report
	for i, r := range reports {
		out.Events += r.Events
		var err error
		if out.TaskEnergyJ, err = mergeHist(out.TaskEnergyJ, r.TaskEnergyJ); err != nil {
			return Report{}, fmt.Errorf("probe: merging report %d task energy: %w", i, err)
		}
		if out.QueueWaitS, err = mergeHist(out.QueueWaitS, r.QueueWaitS); err != nil {
			return Report{}, fmt.Errorf("probe: merging report %d queue wait: %w", i, err)
		}
		if out.OfferGapS, err = mergeHist(out.OfferGapS, r.OfferGapS); err != nil {
			return Report{}, fmt.Errorf("probe: merging report %d offer gap: %w", i, err)
		}
	}
	return out, nil
}

// mergeHist folds b into a, cloning so no input report is mutated.
func mergeHist(a, b *Histogram) (*Histogram, error) {
	if b == nil {
		return a, nil
	}
	if a == nil {
		return b.Clone(), nil
	}
	if err := a.Merge(b); err != nil {
		return nil, err
	}
	return a, nil
}

// WriteJSON emits the report as one indented JSON object.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("probe: report: %w", err)
	}
	return nil
}
