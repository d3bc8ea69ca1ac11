//go:build !race

package sim

// tcpRaceSlack is zero without the race detector; see race_test.go.
const tcpRaceSlack = 0

// raceEnabled reports whether the race detector is on: heap readings
// are skipped under it.
const raceEnabled = false
