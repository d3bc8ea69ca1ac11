//go:build race

package orb

// raceSlack is what the race detector adds to an allocation reading:
// it makes sync.Pool drop a share of what is put back, and a remote call
// goes through pooled frames, reply slots and buffers. An echo reads 6–7
// under -race against 5 without.
const raceSlack = 2
