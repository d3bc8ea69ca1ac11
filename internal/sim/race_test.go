//go:build race

package sim

// The race detector makes sync.Pool drop a share of what is put back,
// so it adds to the allocation readings of the arms that go through
// pools, each arm its own share. The virtual arm parks on pooled
// waiters: it reads 51–52 under -race against 42 without. The tcp arm
// goes through pooled frames, reply slots, buffers and readers: it
// reads 77–78 against 66. The wall arm reads 48 either way.
const (
	raceSlackVirtual = 10
	raceSlackTCP     = 13
)

// raceEnabled reports whether the race detector is on: heap readings
// are skipped under it.
const raceEnabled = true
