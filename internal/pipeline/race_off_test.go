//go:build !race

package pipeline

// raceEnabled reports whether this binary was built with the race detector.
const raceEnabled = false
