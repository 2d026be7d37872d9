//go:build race

package main

// raceEnabled skips the tests that time fresh processes: under the race
// detector they run too slowly to finish.
const raceEnabled = true
