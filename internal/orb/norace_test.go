//go:build !race

package orb

// raceSlack is zero without the race detector; see race_test.go.
const raceSlack = 0
