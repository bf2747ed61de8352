//eantlint:path eant/internal/sim

// Fixture: internal/sim is the one package allowed to import the raw
// generators, for seeded construction only. Constructors over an explicit
// seed, type names and draws from the constructed *rand.Rand are clean;
// global draws and every crypto/rand use are flagged where they start.
package rngonlysim

import (
	crand "crypto/rand"
	"math/rand"
)

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func draw(r *rand.Rand) float64 { return r.Float64() }

func global() float64 {
	return rand.Float64() // want `math/rand\.Float64 in internal/sim is not seeded construction`
}

func entropy(buf []byte) {
	crand.Read(buf) // want `crypto/rand\.Read in internal/sim is not seeded construction`
}
