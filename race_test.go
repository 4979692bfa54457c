//go:build race

package partmb_test

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// some Puts, so the heap a cell allocates is no longer a fixed count.
const raceEnabled = true
