package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicAcrossRuns(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGForkIndependentOfSiblingConsumption(t *testing.T) {
	// Consuming one fork must not perturb another fork's stream.
	g1 := NewRNG(7)
	g2 := NewRNG(7)
	a1 := g1.Fork("noise")
	_ = g1.Fork("workload").Float64() // consume sibling
	a2 := g2.Fork("noise")
	for i := 0; i < 50; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("fork stream perturbed by sibling consumption")
		}
	}
}

func TestRNGForkLabelsDiffer(t *testing.T) {
	g := NewRNG(7)
	a, b := g.Fork("a"), g.Fork("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("differently-labelled forks produced identical streams")
	}
}

func TestNoiseFactorMeanApproxOne(t *testing.T) {
	g := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.NoiseFactor(0.3)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("NoiseFactor mean = %.4f, want ≈ 1", mean)
	}
}

func TestNoiseFactorZeroCV(t *testing.T) {
	g := NewRNG(1)
	if f := g.NoiseFactor(0); f != 1 {
		t.Errorf("NoiseFactor(0) = %v, want 1", f)
	}
}

// TestNoiseFromMatchesLogNormalFormula checks hoisted jitter parameters
// against the per-draw formula on a twin stream, bit for bit, and that a
// disabled Noise (cv ≤ 0 or the zero value) returns 1 without consuming
// the stream.
func TestNoiseFromMatchesLogNormalFormula(t *testing.T) {
	for _, cv := range []float64{1e-300, 0.1, 0.15, 0.3, 2} {
		a, b := NewRNG(5), NewRNG(5)
		n := NewNoise(cv)
		sigma2 := math.Log(1 + cv*cv)
		for i := 0; i < 100; i++ {
			got, want := a.NoiseFrom(n), b.LogNormal(-sigma2/2, math.Sqrt(sigma2))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cv %v draw %d: NoiseFrom = %v, formula = %v", cv, i, got, want)
			}
		}
	}
	for _, n := range []Noise{NewNoise(0), NewNoise(-1), {}} {
		a, b := NewRNG(9), NewRNG(9)
		if f := a.NoiseFrom(n); f != 1 {
			t.Errorf("disabled NoiseFrom = %v, want 1", f)
		}
		if a.Int63() != b.Int63() {
			t.Error("disabled NoiseFrom consumed the stream")
		}
	}
}

func TestNoiseFactorAlwaysPositive(t *testing.T) {
	g := NewRNG(3)
	f := func(cv float64) bool {
		cv = math.Mod(math.Abs(cv), 2)
		return g.NoiseFactor(cv) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouletteRespectsWeights(t *testing.T) {
	g := NewRNG(5)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[g.Roulette(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.02 {
		t.Errorf("index 0 drawn with frequency %.3f, want ≈ 0.25", frac0)
	}
}

func TestRouletteAllZeroFallsBackToUniform(t *testing.T) {
	g := NewRNG(9)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[g.Roulette([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		frac := float64(c) / 40000
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("uniform fallback index %d frequency %.3f, want ≈ 0.25", i, frac)
		}
	}
}

func TestRouletteNegativeWeightsTreatedAsZero(t *testing.T) {
	g := NewRNG(13)
	for i := 0; i < 1000; i++ {
		if idx := g.Roulette([]float64{-5, 2, -1}); idx != 1 {
			t.Fatalf("drew index %d, want only index 1", idx)
		}
	}
}

func TestRouletteEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty roulette did not panic")
		}
	}()
	NewRNG(1).Roulette(nil)
}

func TestRouletteInRangeProperty(t *testing.T) {
	g := NewRNG(17)
	f := func(ws []float64) bool {
		if len(ws) == 0 {
			return true
		}
		i := g.Roulette(ws)
		return i >= 0 && i < len(ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformInRange(t *testing.T) {
	g := NewRNG(19)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := NewRNG(23)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(29)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.05 {
		t.Errorf("Exp(4) sample mean = %.3f, want ≈ 4", mean)
	}
}
