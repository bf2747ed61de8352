package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"eant/internal/sim"
)

func TestAppString(t *testing.T) {
	tests := []struct {
		app  App
		want string
	}{
		{Wordcount, "Wordcount"},
		{Grep, "Grep"},
		{Terasort, "Terasort"},
		{App(99), "App(99)"},
	}
	for _, tt := range tests {
		if got := tt.app.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.app), got, tt.want)
		}
	}
}

func TestParseAppRoundTrip(t *testing.T) {
	for _, a := range Apps() {
		got, err := ParseApp(a.String())
		if err != nil {
			t.Fatalf("ParseApp(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("ParseApp(%q) = %v, want %v", a.String(), got, a)
		}
	}
	if _, err := ParseApp("Sort"); err == nil {
		t.Error("ParseApp accepted unknown app")
	}
}

func TestProfilesMatchPaperCharacterization(t *testing.T) {
	wc := ProfileOf(Wordcount)
	grep := ProfileOf(Grep)
	ts := ProfileOf(Terasort)

	// Fig. 1d: Wordcount is map/CPU-intensive. A map phase is CPU-bound
	// when its CPU seconds per MB exceed its IO seconds per MB at a
	// reference disk share of about 30 MB/s per slot.
	cpuBound := func(p Profile) bool { return p.MapCPUPerMB > p.MapIOPerMB/30 }
	if !cpuBound(wc) {
		t.Error("Wordcount profile should be CPU-bound")
	}
	if cpuBound(grep) || cpuBound(ts) {
		t.Error("Grep and Terasort profiles should be IO-bound")
	}
	// Terasort shuffles its full input volume.
	if ts.ShuffleRatio < 0.9 {
		t.Errorf("Terasort shuffle ratio = %v, want ≈ 1", ts.ShuffleRatio)
	}
	if wc.ShuffleRatio >= grep.ShuffleRatio || grep.ShuffleRatio >= ts.ShuffleRatio {
		t.Error("shuffle ratios should order Wordcount < Grep < Terasort")
	}
}

func TestProfileOfUnknownPanics(t *testing.T) {
	for _, app := range []App{0, -1, Terasort + 1, 42} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ProfileOf(%v) did not panic", app)
				}
			}()
			ProfileOf(app)
		}()
	}
}

func TestMapsForInput(t *testing.T) {
	tests := []struct {
		inputMB float64
		want    int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {65, 2}, {6400, 100}, {50 * 1024, 800},
	}
	for _, tt := range tests {
		if got := MapsForInput(tt.inputMB); got != tt.want {
			t.Errorf("MapsForInput(%v) = %d, want %d", tt.inputMB, got, tt.want)
		}
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := NewJobSpec(1, Grep, 640, 4, time.Minute)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if edge := NewJobSpec(1, Grep, MaxInputMB, MaxTasks, 0); edge.Validate() != nil || edge.NumMaps != MaxTasks {
		t.Errorf("largest valid spec rejected or miscounted: %+v", edge)
	}
	// Job IDs travel as int32 in probe events: both int32 edges are valid.
	for _, id := range []int{math.MinInt32, math.MaxInt32} {
		if err := NewJobSpec(id, Grep, 64, 1, 0).Validate(); err != nil {
			t.Errorf("ID %d rejected: %v", id, err)
		}
	}
	bad := []JobSpec{
		{ID: 1, App: App(9), InputMB: 64, NumMaps: 1},
		{ID: 1, App: Grep, InputMB: 0, NumMaps: 1},
		{ID: 1, App: Grep, InputMB: 64, NumMaps: 0},
		{ID: 1, App: Grep, InputMB: 64, NumMaps: 1, NumReduces: -1},
		{ID: 1, App: Grep, InputMB: 64, NumMaps: 1, Submit: -time.Second},
		{ID: 1, App: Grep, InputMB: math.NaN(), NumMaps: 1},
		{ID: 1, App: Grep, InputMB: math.Inf(1), NumMaps: 1},
		{ID: 1, App: Grep, InputMB: MaxInputMB * 2, NumMaps: 1},
		{ID: 1, App: Grep, InputMB: 64, NumMaps: MaxTasks + 1},
		{ID: 1, App: Grep, InputMB: 64, NumMaps: 1, NumReduces: MaxTasks + 1},
		{ID: math.MinInt32 - 1, App: Grep, InputMB: 64, NumMaps: 1},
		{ID: math.MaxInt32 + 1, App: Grep, InputMB: 64, NumMaps: 1},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestMapInputMBTailBlock(t *testing.T) {
	j := NewJobSpec(0, Wordcount, 100, 1, 0) // 2 maps: 64 + 36
	if got := j.MapInputMB(0); got != 64 {
		t.Errorf("first block = %v MB, want 64", got)
	}
	if got := j.MapInputMB(1); math.Abs(got-36) > 1e-9 {
		t.Errorf("tail block = %v MB, want 36", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range map index did not panic")
		}
	}()
	j.MapInputMB(2)
}

func TestMapInputConservationProperty(t *testing.T) {
	f := func(raw float64) bool {
		inputMB := math.Abs(math.Mod(raw, 1e6)) + 1
		j := NewJobSpec(0, Terasort, inputMB, 1, 0)
		var total float64
		for i := 0; i < j.NumMaps; i++ {
			total += j.MapInputMB(i)
		}
		return math.Abs(total-inputMB) < 1e-6*inputMB+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleMBPerReduce(t *testing.T) {
	j := NewJobSpec(0, Terasort, 6400, 10, 0) // ratio 1.0
	if got := j.ShuffleMBPerReduce(); math.Abs(got-640) > 1e-9 {
		t.Errorf("shuffle per reduce = %v, want 640", got)
	}
	mapOnly := NewJobSpec(0, Grep, 640, 0, 0)
	if got := mapOnly.ShuffleMBPerReduce(); got != 0 {
		t.Errorf("map-only job shuffle = %v, want 0", got)
	}
}

func TestJobSpecNames(t *testing.T) {
	j := NewJobSpec(3, Wordcount, 640, 2, 0)
	if got := j.Name(); got != "Wordcount#3" {
		t.Errorf("Name() = %q", got)
	}
	j.Class = Small
	if got := j.Name(); got != "Wordcount-S#3" {
		t.Errorf("Name() = %q", got)
	}
	if got := j.ClassLabel(); got != "Wordcount-S" {
		t.Errorf("ClassLabel() = %q", got)
	}
}

func TestGenerateMSDCountsAndClasses(t *testing.T) {
	cfg := DefaultMSD()
	jobs, err := GenerateMSD(cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatalf("GenerateMSD: %v", err)
	}
	if len(jobs) != 87 {
		t.Fatalf("generated %d jobs, want 87", len(jobs))
	}
	counts := ClassCounts(jobs)
	// Renormalized Table III shares over 87 jobs: ≈ 50 S, 25 M, 12 L.
	if counts[Small] != 50 || counts[Medium] != 25 || counts[Large] != 12 {
		t.Errorf("class counts = S:%d M:%d L:%d, want 50/25/12",
			counts[Small], counts[Medium], counts[Large])
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("generated invalid job: %v", err)
		}
	}
}

func TestGenerateMSDSizeBounds(t *testing.T) {
	jobs, err := GenerateMSD(MSDConfig{Jobs: 200, Scale: 1}, sim.NewRNG(2))
	if err != nil {
		t.Fatalf("GenerateMSD: %v", err)
	}
	bounds := map[SizeClass][2]float64{
		Small:  {1 * 1024, 100 * 1024},
		Medium: {100 * 1024, 1024 * 1024},
		Large:  {1024 * 1024, 10 * 1024 * 1024},
	}
	for _, j := range jobs {
		b := bounds[j.Class]
		if j.InputMB < b[0] || j.InputMB > b[1] {
			t.Errorf("job %s input %.0f MB outside class bounds %v", j.Name(), j.InputMB, b)
		}
	}
}

func TestGenerateMSDScaleShrinksJobs(t *testing.T) {
	full, err := GenerateMSD(MSDConfig{Jobs: 60, Scale: 1}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := GenerateMSD(MSDConfig{Jobs: 60, Scale: 32}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var fullMB, scaledMB float64
	for i := range full {
		fullMB += full[i].InputMB
		scaledMB += scaled[i].InputMB
	}
	if scaledMB >= fullMB/16 {
		t.Errorf("scale 32 total %.0f MB not ≪ full total %.0f MB", scaledMB, fullMB)
	}
}

func TestGenerateMSDDeterministic(t *testing.T) {
	a, _ := GenerateMSD(DefaultMSD(), sim.NewRNG(7))
	b, _ := GenerateMSD(DefaultMSD(), sim.NewRNG(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across identically-seeded runs", i)
		}
	}
}

func TestGenerateMSDArrivalsMonotonic(t *testing.T) {
	jobs, _ := GenerateMSD(DefaultMSD(), sim.NewRNG(9))
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestGenerateMSDValidation(t *testing.T) {
	for _, cfg := range []MSDConfig{
		{Jobs: 0, Scale: 1},
		{Jobs: 10, Scale: 0},
		{Jobs: 10, Scale: 1, MeanInterarrival: -time.Second},
	} {
		if _, err := GenerateMSD(cfg, sim.NewRNG(1)); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGenerateMSDAppRestriction(t *testing.T) {
	jobs, err := GenerateMSD(MSDConfig{Jobs: 30, Scale: 1, Apps: []App{Grep}}, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.App != Grep {
			t.Fatalf("job %s is not Grep", j.Name())
		}
	}
}

func TestBatch(t *testing.T) {
	jobs := Batch(Wordcount, 5, 640, 2, time.Minute)
	if len(jobs) != 5 {
		t.Fatalf("Batch made %d jobs, want 5", len(jobs))
	}
	for i, j := range jobs {
		if j.Submit != time.Duration(i)*time.Minute {
			t.Errorf("job %d submit = %v", i, j.Submit)
		}
		if j.NumMaps != 10 {
			t.Errorf("job %d maps = %d, want 10", i, j.NumMaps)
		}
	}
}

// DefaultMSD is the paper's configuration: 87 jobs at full scale, arriving
// with a 90 s mean spacing (the paper does not publish its submission
// schedule; 90 s keeps the cluster continuously backlogged as in §VI).
func DefaultMSD() MSDConfig {
	return MSDConfig{Jobs: 87, Scale: 1, MeanInterarrival: 90 * time.Second}
}
