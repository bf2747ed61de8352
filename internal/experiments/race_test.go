//go:build race

package experiments

// raceEnabled reports whether the test binary runs under the race
// detector, which drops a random share of sync.Pool puts.
const raceEnabled = true
