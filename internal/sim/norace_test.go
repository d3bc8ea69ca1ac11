//go:build !race

package sim

// tcpRaceSlack is zero without the race detector; see race_test.go.
const tcpRaceSlack = 0
