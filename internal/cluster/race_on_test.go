//go:build race

package cluster

// raceEnabled reports whether the test binary runs under the race
// detector, where sync.Pool drops a random share of Puts by design.
const raceEnabled = true
