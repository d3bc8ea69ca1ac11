package orb

import (
	"io"
	"runtime"
	"sync"
)

// coalescer gathers frames from concurrent callers into single large
// writes. Callers append complete frames to a shared pending buffer
// under one short mutex hold; the first appender spawns a flusher
// goroutine that swaps the buffer out and issues one conn.Write for
// everything accumulated while the previous write was in flight. Under
// concurrency this replaces N serialized per-call writes with a handful
// of batched writes — the same dynamic-batching idea as batchq's flush
// loop, applied to the socket.
//
// The coalescer also tracks frame fate, because context-expiry
// semantics depend on it: a frame whose bytes are fully written is
// "flushed" (the connection is fine, the response will be dropped); a
// frame inside an in-flight write is "inflight" (the stream may be cut
// mid-frame, the connection must die); a frame still in the pending
// buffer is excised in place ("excised" — nothing touched the wire, the
// connection stays alive).
type coalescer struct {
	w     io.Writer
	onErr func(error) // invoked once, outside the lock, on write failure
	loop  func()      // co.flushLoop, bound once: binding it per start allocates

	mu       sync.Mutex
	pending  []byte // frames accumulated since the last swap
	spans    []frameSpan
	spare    []byte       // recycled write buffer
	spareSp  []frameSpan  // recycled span slice
	scratch  []byte       // header scratch for append callbacks
	methods  methodIntern // the sending client's method IDs; idle on a server
	flushing bool
	err      error

	nextID    uint64 // last assigned frame ID (IDs start at 1)
	flushedID uint64 // every frame with ID <= flushedID is fully written
	writeLo   uint64 // in-flight write covers IDs [writeLo, writeHi]; 0 = none
	writeHi   uint64
}

// frameSpan locates one frame inside the pending buffer. defines is the
// method whose connection-local ID this frame introduces, if any.
type frameSpan struct {
	id         uint64
	start, end int
	defines    string
}

// coalesceRecycleMax bounds recycled write buffers; one giant payload
// must not pin its memory for the connection's lifetime.
const coalesceRecycleMax = 1 << 22

func newCoalescer(w io.Writer, onErr func(error)) *coalescer {
	co := &coalescer{w: w, onErr: onErr}
	co.loop = co.flushLoop
	return co
}

// append runs fn under the coalescer lock to append exactly one
// complete frame to the pending buffer, then ensures a flusher is
// running. fn may use co.scratch and co.methods, which are only touched
// under this lock (so the frame introducing a method ID is ordered
// before every frame using it). It returns the frame's ID for cancel.
func (co *coalescer) append(fn func(b []byte) []byte) (uint64, error) {
	co.mu.Lock()
	if co.err != nil {
		err := co.err
		co.mu.Unlock()
		return 0, err
	}
	start := len(co.pending)
	co.pending = fn(co.pending)
	co.nextID++
	id := co.nextID
	co.spans = append(co.spans, frameSpan{id: id, start: start, end: len(co.pending), defines: co.methods.defined})
	co.methods.defined = ""
	if !co.flushing {
		co.flushing = true
		go co.loop()
	}
	co.mu.Unlock()
	return id, nil
}

// flushLoop drains the pending buffer with one Write per pass until
// nothing new arrived during the previous write, then exits; the next
// append restarts it.
func (co *coalescer) flushLoop() {
	for {
		// One scheduler yield before swapping: appenders that are already
		// runnable get to add their frames to this pass, roughly doubling
		// batch sizes under concurrency for one deferral of latency.
		runtime.Gosched()
		co.mu.Lock()
		if co.err != nil || len(co.spans) == 0 {
			// Appends may have been excised down to zero frames with
			// residual bytes; drop them.
			co.pending = co.pending[:0]
			co.flushing = false
			co.mu.Unlock()
			return
		}
		buf, spans := co.pending, co.spans
		co.pending, co.spans = co.spare[:0], co.spareSp[:0]
		co.spare, co.spareSp = nil, nil
		co.writeLo, co.writeHi = spans[0].id, spans[len(spans)-1].id
		co.mu.Unlock()

		_, err := co.w.Write(buf)

		co.mu.Lock()
		hi := co.writeHi
		co.writeLo, co.writeHi = 0, 0
		if err != nil {
			if co.err == nil {
				co.err = err
			}
			co.flushing = false
			onErr := co.onErr
			co.mu.Unlock()
			if onErr != nil {
				onErr(err)
			}
			return
		}
		co.flushedID = hi
		if cap(buf) <= coalesceRecycleMax {
			co.spare, co.spareSp = buf[:0], spans[:0]
		}
		co.mu.Unlock()
	}
}

// cancelState classifies what had happened to a frame when its caller
// gave up on it.
type cancelState int

const (
	// cancelFlushed: the frame was fully written, or is pending and must
	// stay because it defines a method ID for frames behind it; the
	// connection is intact and the eventual response will be dropped.
	cancelFlushed cancelState = iota
	// cancelInflight: the frame was part of a write still in progress;
	// the stream may be cut mid-frame and the connection must be closed.
	cancelInflight
	// cancelExcised: the frame was removed from the pending buffer
	// before any of its bytes touched the wire; the connection is fine.
	cancelExcised
)

// cancel resolves the fate of the identified frame, excising it from
// the pending buffer when it has not started toward the wire. Each
// frame may be cancelled at most once.
func (co *coalescer) cancel(id uint64) cancelState {
	co.mu.Lock()
	defer co.mu.Unlock()
	if id <= co.flushedID {
		return cancelFlushed
	}
	if co.writeLo != 0 && id >= co.writeLo && id <= co.writeHi {
		return cancelInflight
	}
	for i, f := range co.spans {
		if f.id != id {
			continue
		}
		if f.defines != "" {
			// Frames appended since may name the method by the ID this
			// one defines, so it has to go out ahead of them (its reply
			// will be dropped). Behind nothing, it is excised and the
			// method's next frame defines it afresh.
			if i != len(co.spans)-1 {
				return cancelFlushed
			}
			delete(co.methods.ids, f.defines)
		}
		w := f.end - f.start
		co.pending = append(co.pending[:f.start], co.pending[f.end:]...)
		co.spans = append(co.spans[:i], co.spans[i+1:]...)
		for j := i; j < len(co.spans); j++ {
			co.spans[j].start -= w
			co.spans[j].end -= w
		}
		return cancelExcised
	}
	// Not pending, not in the write window, not flushed: the connection
	// failed and the frame evaporated with it. The connection is already
	// dead, so "flushed" (do not close again) is the safe answer.
	return cancelFlushed
}
