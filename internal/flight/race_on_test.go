//go:build race

package flight

// raceEnabled reports whether the race detector is active; heap
// measurements are only meaningful without it.
const raceEnabled = true
