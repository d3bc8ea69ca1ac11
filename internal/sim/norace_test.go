//go:build !race

package sim

// raceSlack is zero without the race detector; see race_test.go.
const raceSlack = 0

// raceEnabled reports whether the race detector is on: heap readings
// are skipped under it.
const raceEnabled = false
