//go:build race

package serve

// raceEnabled shrinks the long deterministic sweeps under the race
// detector, which slows them tenfold without adding anything to check:
// they run on one goroutine.
const raceEnabled = true
