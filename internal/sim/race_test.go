//go:build race

package sim

// raceSlack is what the race detector adds to the virtual and tcp arms'
// allocation readings: it makes sync.Pool drop a share of what is put
// back, and the virtual arm parks on pooled waiters while the tcp arm
// goes through pooled frames, reply slots and buffers. They read 54 and
// 91 under -race against 44 and 81 without; the wall arm reads 50
// either way.
const raceSlack = 10

// raceEnabled reports whether the race detector is on: heap readings
// are skipped under it.
const raceEnabled = true
