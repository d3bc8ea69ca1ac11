//go:build race

package sim

// tcpRaceSlack is what the race detector adds to the tcp arm's
// allocation reading: it makes sync.Pool drop a share of what is put
// back, and that arm goes through pooled frames, reply slots and
// buffers. It reads 143 under -race against 131 without. The wall and
// virtual arms read 100 and 107 under -race, inside their budgets.
const tcpRaceSlack = 10
