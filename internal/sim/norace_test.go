//go:build !race

package sim

// The race slacks are zero without the race detector; see race_test.go.
const (
	raceSlackVirtual = 0
	raceSlackTCP     = 0
)

// raceEnabled reports whether the race detector is on: heap readings
// are skipped under it.
const raceEnabled = false
