//go:build !race

package recognizer

// raceEnabled reports whether this binary was built with the race detector.
const raceEnabled = false
