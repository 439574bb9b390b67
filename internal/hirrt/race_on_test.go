//go:build race

package hirrt

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
