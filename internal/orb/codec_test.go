package orb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/telemetry"
	"legion/internal/wire"
)

// Package proto registers the real message types; these tests use a
// bare LOID as a stand-in registered payload.
func init() {
	RegisterWireMessage(testWireLOID, func(r *wire.Reader) (l loid.LOID) { l.DecodeWire(r); return })
}

// codecEchoObj echoes its argument back; "fail" returns an error.
type codecEchoObj struct {
	l       loid.LOID
	invoked atomic.Int64
	block   chan struct{} // when non-nil, "hold" blocks until closed
}

func (o *codecEchoObj) LOID() loid.LOID { return o.l }

func (o *codecEchoObj) Dispatch(ctx context.Context, method string, arg any) (any, error) {
	o.invoked.Add(1)
	switch method {
	case "fail":
		return nil, errors.New("codec test failure")
	case "hold":
		if o.block != nil {
			select {
			case <-o.block:
			case <-ctx.Done():
			}
		}
		return "held", nil
	case "unregistered":
		return struct{ X int }{7}, nil
	default:
		return arg, nil
	}
}

// startEcho returns a serving runtime, its echo object, and the address.
func startEcho(t *testing.T) (*Runtime, *codecEchoObj, string) {
	t.Helper()
	server := NewRuntime("srv")
	obj := &codecEchoObj{l: server.Mint("Echo")}
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return server, obj, addr
}

// rawConn opens a connection to addr that has sent the preamble, for
// tests that speak frames by hand.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(preamble[:]); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	return conn
}

// readResponse reads one response frame off a raw connection.
func readResponse(br *bufio.Reader) (response, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return response{}, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return response{}, err
	}
	var r wire.Reader
	return decodeResponseFrame(&r, body)
}

// TestTCPCallRoundTrips drives every payload kind the codec carries —
// a registered message, the built-in string and []string tags, nil —
// and the typed errors across one real connection.
func TestTCPCallRoundTrips(t *testing.T) {
	_, obj, addr := startEcho(t)
	ctx := context.Background()
	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	if res, err := client.Call(ctx, obj.LOID(), "echo", "hello"); err != nil || res != "hello" {
		t.Fatalf("string echo: %v %v", res, err)
	}
	kv := []string{"key", "", "value"}
	if res, err := client.Call(ctx, obj.LOID(), "echo", kv); err != nil || !reflect.DeepEqual(res, kv) {
		t.Fatalf("[]string echo: %v %v", res, err)
	}
	want := loid.LOID{Domain: "d", Class: "C", Instance: 9}
	if res, err := client.Call(ctx, obj.LOID(), "echo", want); err != nil || res != want {
		t.Fatalf("LOID echo: %v %v", res, err)
	}
	if res, err := client.Call(ctx, obj.LOID(), "echo", nil); err != nil || res != nil {
		t.Fatalf("nil echo: %v %v", res, err)
	}
	// Errors cross with their message.
	if _, err := client.Call(ctx, obj.LOID(), "fail", nil); err == nil ||
		!strings.Contains(err.Error(), "codec test failure") {
		t.Fatalf("error passthrough: %v", err)
	}
	// Unbound targets keep their typed identity.
	if _, err := client.Call(ctx, loid.LOID{Domain: "srv", Class: "Nope", Instance: 1}, "echo", nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("not-bound: %v", err)
	}
}

// TestUnregisteredTypeFailsCallNotConnection pins the codec's one
// refusal: a value with no wire encoding fails its own call with a typed
// error and leaves the shared connection serving. An argument is refused
// before a request ID is allocated or a byte is written; a result is
// refused by the server and comes back as a remote error.
func TestUnregisteredTypeFailsCallNotConnection(t *testing.T) {
	_, obj, addr := startEcho(t)
	ctx := context.Background()
	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	if _, err := client.Call(ctx, obj.LOID(), "echo", nil); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	c, err := client.client(addr)
	if err != nil {
		t.Fatal(err)
	}
	sameLiveClient := func(when string) {
		t.Helper()
		c.mu.Lock()
		cerr := c.err
		c.mu.Unlock()
		if again, _ := client.client(addr); cerr != nil || again != c {
			t.Fatalf("%s: connection replaced or closed (err=%v)", when, cerr)
		}
		if n := pendingCount(client); n != 0 {
			t.Fatalf("%s: %d pending requests leaked", when, n)
		}
		if res, err := client.Call(ctx, obj.LOID(), "echo", "still here"); err != nil || res != "still here" {
			t.Fatalf("%s: next call: %v %v", when, res, err)
		}
	}

	invoked := obj.invoked.Load()
	c.mu.Lock()
	nextID := c.nextID
	c.mu.Unlock()
	for _, arg := range []any{struct{ X int }{7}, 42, []byte{1}, map[string]string{"k": "v"}} {
		if _, err := client.Call(ctx, obj.LOID(), "echo", arg); !errors.Is(err, ErrUnregisteredType) {
			t.Fatalf("%T argument: err=%v, want ErrUnregisteredType", arg, err)
		}
	}
	c.mu.Lock()
	sent := c.nextID - nextID
	c.mu.Unlock()
	if sent != 0 || obj.invoked.Load() != invoked {
		t.Fatalf("refused arguments allocated %d request IDs and reached the object %d times",
			sent, obj.invoked.Load()-invoked)
	}
	sameLiveClient("after unregistered argument")

	_, err = client.Call(ctx, obj.LOID(), "unregistered", nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), ErrUnregisteredType.Error()) {
		t.Fatalf("unregistered result: err=%v, want a remote error naming the refusal", err)
	}
	sameLiveClient("after unregistered result")
}

// TestRetiredPreambleClosedWithoutWedging opens connections with the
// retired gob codec byte, a wrong magic, and a short preamble: each is
// closed (or left waiting for its missing bytes) without a response,
// and the server keeps serving well-formed clients throughout.
func TestRetiredPreambleClosedWithoutWedging(t *testing.T) {
	_, obj, addr := startEcho(t)
	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	for _, pre := range [][]byte{
		{'L', 'G', 1, 'G'}, // the retired gob stream
		{'L', 'G', 2, 'B'}, // unknown version
		{'X', 'G', 1, 'B'}, // wrong magic
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A gob-era peer would follow the preamble with a type
		// descriptor stream; none of it may be interpreted.
		if _, err := conn.Write(append(pre, 0x40, 0xff, 0x81, 0x03, 0x01, 0x01)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Fatalf("preamble % x: server answered (%d bytes, err=%v), want close", pre, n, err)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("preamble % x: connection left open", pre)
		}
		conn.Close()
		if res, err := client.Call(context.Background(), obj.LOID(), "echo", "ok"); err != nil || res != "ok" {
			t.Fatalf("after preamble % x: well-formed client got %v %v", pre, res, err)
		}
	}

	// A peer that stalls mid-preamble occupies only its own goroutine.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.Write([]byte{'L', 'G'})
	if res, err := client.Call(context.Background(), obj.LOID(), "echo", "ok"); err != nil || res != "ok" {
		t.Fatalf("beside a stalled preamble: %v %v", res, err)
	}
}

// TestMethodTableBounded drives the per-connection method table's two
// caps from a hostile peer: a defining frame whose name is too long, or
// one that would grow the table past maxMethods, is a corrupt header —
// the connection drops, unanswered, and nothing is retained.
func TestMethodTableBounded(t *testing.T) {
	_, obj, addr := startEcho(t)
	// define writes a frame introducing method id as name; a failed
	// write shows up as the missing response.
	define := func(conn net.Conn, id uint64, name string) {
		b := wire.AppendUvarint(nil, id) // request ID
		b = wire.AppendUvarint(b, id<<1|1)
		b = wire.AppendString(b, name)
		b = obj.LOID().AppendWire(b)
		b = append(b, 0, 0, 0) // trace, span, deadline
		b = append(b, payloadNil)
		conn.Write(wire.AppendBytes(nil, b))
	}
	dropped := func(br *bufio.Reader, conn net.Conn) bool {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := readResponse(br)
		return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)
	}

	t.Run("name length", func(t *testing.T) {
		conn := rawConn(t, addr)
		br := bufio.NewReader(conn)
		define(conn, 1, strings.Repeat("m", maxMethodNameLen))
		if resp, err := readResponse(br); err != nil || resp.ID != 1 {
			t.Fatalf("name at the cap: %+v %v", resp, err)
		}
		define(conn, 2, strings.Repeat("m", maxMethodNameLen+1))
		if !dropped(br, conn) {
			t.Fatal("over-long method name did not drop the connection")
		}
	})

	t.Run("entries", func(t *testing.T) {
		conn := rawConn(t, addr)
		br := bufio.NewReader(conn)
		for id := uint64(1); id <= maxMethods; id++ {
			define(conn, id, fmt.Sprintf("m%d", id))
		}
		define(conn, 1, "redefined") // an existing ID does not grow the table
		for id := uint64(1); id <= maxMethods+1; id++ {
			if _, err := readResponse(br); err != nil {
				t.Fatalf("response %d of a full table: %v", id, err)
			}
		}
		define(conn, maxMethods+1, "one-too-many")
		if !dropped(br, conn) {
			t.Fatal("frame growing the table past maxMethods did not drop the connection")
		}
	})

	// Direct: the table holds what it was given and no more.
	var mt methodTable
	for id := uint64(0); id < 2*maxMethods; id++ {
		mt.define(id, "m")
	}
	if len(mt.names) != maxMethods {
		t.Fatalf("table holds %d entries, cap %d", len(mt.names), maxMethods)
	}
}

// TestBinaryCodecConcurrentCalls hammers one binary connection from many
// goroutines so frames coalesce, verifying responses route back to the
// right callers.
func TestBinaryCodecConcurrentCalls(t *testing.T) {
	_, obj, addr := startEcho(t)
	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	const callers, calls = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf("msg-%d-%d", g, i)
				res, err := client.Call(context.Background(), obj.LOID(), "echo", want)
				if err != nil || res != want {
					errs <- fmt.Errorf("caller %d call %d: got %v, %v", g, i, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := obj.invoked.Load(); n != callers*calls {
		t.Fatalf("dispatched %d calls, want %d", n, callers*calls)
	}
}

// TestServerOverloadSheds verifies the server-wide handler bound: past
// the limit, frames are refused immediately with ErrServerOverload, the
// shed counter increments, and the connection keeps serving once
// capacity frees up.
func TestServerOverloadSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	server := NewRuntime("srv")
	server.SetMetrics(reg)
	server.SetServerLimit(2)
	obj := &codecEchoObj{l: server.Mint("Echo"), block: make(chan struct{})}
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	ctx := context.Background()

	// A method labels the server's metrics once a dispatch of it has
	// returned; until then a shed of it counts under "unknown".
	if _, err := client.Call(ctx, obj.LOID(), "echo", "first"); err != nil {
		t.Fatal(err)
	}

	// Fill both handler slots with calls that park in the object.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := client.Call(ctx, obj.LOID(), "hold", nil); err != nil || res != "held" {
				t.Errorf("held call: %v %v", res, err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for server.serverLimiter().InFlight() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("holders never occupied the limiter")
		}
		time.Sleep(time.Millisecond)
	}

	// The third frame must shed, typed and counted.
	_, err = client.Call(ctx, obj.LOID(), "echo", "overflow")
	if !errors.Is(err, ErrServerOverload) {
		t.Fatalf("overload err=%v, want ErrServerOverload", err)
	}
	// The message carries the proto.ErrOverload prefix package
	// resilient classifies as a permanent refusal.
	if !strings.Contains(err.Error(), "legion: overloaded, request shed") {
		t.Fatalf("overload message %q lacks the shed-classification prefix", err)
	}
	if n := reg.CounterValue("legion_orb_server_overload_total", "method", "echo"); n != 1 {
		t.Fatalf("legion_orb_server_overload_total = %v, want 1", n)
	}

	// Capacity frees; the same connection serves again.
	close(obj.block)
	wg.Wait()
	if res, err := client.Call(ctx, obj.LOID(), "echo", "after"); err != nil || res != "after" {
		t.Fatalf("call after shed: %v %v", res, err)
	}
}

// TestLoopbackCodecRoundTrips verifies the loopback marshalling boundary:
// local dispatch sees a re-materialized argument (not the caller's
// reference), results round-trip equally, and a type the wire cannot
// carry fails the call as it would over a connection.
func TestLoopbackCodecRoundTrips(t *testing.T) {
	rt := NewRuntime("local")
	rt.SetLoopbackCodec(true)
	var seen any
	obj := &funcObj{l: rt.Mint("Echo"), fn: func(arg any) (any, error) {
		seen = arg
		return arg, nil
	}}
	rt.Register(obj)

	arg := loid.LOID{Domain: "d", Class: "C", Instance: 42}
	res, err := rt.Call(context.Background(), obj.LOID(), "echo", arg)
	if err != nil || res != arg {
		t.Fatalf("loopback echo: %v %v", res, err)
	}
	if seen != arg {
		t.Fatalf("dispatch saw %v, want %v", seen, arg)
	}
	// A slice crosses by value now: mutating the original after the
	// call must not be visible to a retained argument.
	raw := []string{"a", "b"}
	if _, err := rt.Call(context.Background(), obj.LOID(), "echo", raw); err != nil {
		t.Fatal(err)
	}
	raw[0] = "mutated"
	if got := seen.([]string); got[0] != "a" {
		t.Fatalf("loopback aliased the caller's slice: %v", got)
	}
	seen = nil
	if _, err := rt.Call(context.Background(), obj.LOID(), "echo", []byte{1}); !errors.Is(err, ErrUnregisteredType) || seen != nil {
		t.Fatalf("unregistered argument: err=%v dispatched=%v", err, seen)
	}
}

// funcObj adapts a closure to Object.
type funcObj struct {
	l  loid.LOID
	fn func(arg any) (any, error)
}

func (o *funcObj) LOID() loid.LOID { return o.l }
func (o *funcObj) Dispatch(ctx context.Context, method string, arg any) (any, error) {
	return o.fn(arg)
}

// TestCoalescerCancelStates drives the frame-fate trichotomy directly:
// flushed frames report flushed, pending frames excise cleanly (and the
// buffer compacts around them), and frames inside a blocked write report
// inflight.
func TestCoalescerCancelStates(t *testing.T) {
	// A writer that blocks until released, recording everything written.
	w := &gateWriter{gate: make(chan struct{})}
	co := newCoalescer(w, nil)

	mk := func(tag byte, n int) func([]byte) []byte {
		return func(b []byte) []byte {
			for i := 0; i < n; i++ {
				b = append(b, tag)
			}
			return b
		}
	}
	id1, err := co.append(mk('a', 4))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until frame 1's write is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		co.mu.Lock()
		inFlight := co.writeLo != 0
		co.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never started")
		}
		time.Sleep(time.Millisecond)
	}
	if got := co.cancel(id1); got != cancelInflight {
		t.Fatalf("cancel(in-flight) = %v, want inflight", got)
	}

	// Three more frames accumulate behind the blocked write; excising the
	// middle one leaves the outer two intact.
	id2, _ := co.append(mk('b', 2))
	id3, _ := co.append(mk('c', 3))
	id4, _ := co.append(mk('d', 2))
	if got := co.cancel(id3); got != cancelExcised {
		t.Fatalf("cancel(pending) = %v, want excised", got)
	}
	co.mu.Lock()
	pending := string(co.pending)
	co.mu.Unlock()
	if pending != "bbdd" {
		t.Fatalf("pending after excision = %q, want %q", pending, "bbdd")
	}

	// Release the writer; everything left flushes.
	close(w.gate)
	deadline = time.Now().Add(5 * time.Second)
	for {
		co.mu.Lock()
		done := co.flushedID >= id4 && !co.flushing
		co.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frames never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := co.cancel(id2); got != cancelFlushed {
		t.Fatalf("cancel(flushed) = %v, want flushed", got)
	}
	w.mu.Lock()
	written := string(w.buf)
	w.mu.Unlock()
	if written != "aaaa"+"bbdd" {
		t.Fatalf("wrote %q, want %q", written, "aaaabbdd")
	}
}

// waitCoalescer polls cond under co's lock until it holds, failing t with
// what after 5s.
func waitCoalescer(t *testing.T, co *coalescer, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		co.mu.Lock()
		ok := cond()
		co.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExcisionKeepsMethodDefinitions: the frame that introduces a method
// ID carries the name for every frame after it. A caller that gives up
// on it while it is still pending may take it out only from the end of
// the buffer (and then the method is defined afresh next time); with
// frames behind it, it goes out. Either way the receiver can decode the
// whole stream. Excising it from under its users left them naming an ID
// the receiver had never been told, which drops the connection.
func TestExcisionKeepsMethodDefinitions(t *testing.T) {
	w := &gateWriter{gate: make(chan struct{})}
	co := newCoalescer(w, nil)
	target := loid.LOID{Domain: "zone-1", Class: "Host", Instance: 31}
	var nextID uint64
	send := func(method string) uint64 {
		nextID++
		req := request{ID: nextID, Target: target, Method: method}
		id, err := co.append(func(b []byte) []byte {
			return appendRequestFrame(b, &co.scratch, &co.methods, &req, []byte{payloadNil})
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	send("wedge")
	waitCoalescer(t, co, "flusher never started", func() bool { return co.writeLo != 0 })

	definesProbe := send("probe")
	send("probe")
	if got := co.cancel(definesProbe); got != cancelFlushed {
		t.Fatalf("cancel(defining frame with a user behind it) = %v, want flushed (kept)", got)
	}
	definesQuery := send("query")
	if got := co.cancel(definesQuery); got != cancelExcised {
		t.Fatalf("cancel(defining frame at the end) = %v, want excised", got)
	}
	send("query")

	close(w.gate)
	waitCoalescer(t, co, "frames never flushed", func() bool { return co.flushedID == co.nextID && !co.flushing })

	w.mu.Lock()
	r := wire.NewReader(w.buf)
	w.mu.Unlock()
	var mt methodTable
	var got []string
	for len(r.B) > 0 {
		n := r.Len()
		body := wire.NewReader(r.B[:n])
		r.B = r.B[n:]
		req, err := decodeRequestHeader(&body, &mt)
		if err != nil {
			t.Fatalf("frame %d of the stream: %v", len(got), err)
		}
		got = append(got, req.Method)
	}
	if want := []string{"wedge", "probe", "probe", "query"}; !slices.Equal(got, want) {
		t.Fatalf("receiver decoded %v, want %v", got, want)
	}
}

// gateWriter blocks each Write until its gate closes, then records.
type gateWriter struct {
	gate chan struct{}
	mu   sync.Mutex
	buf  []byte
}

func (w *gateWriter) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	w.buf = append(w.buf, p...)
	w.mu.Unlock()
	return len(p), nil
}

// TestBuiltinPayloadTags pins the two built-in tags: string is 2,
// []string is 3, and both round-trip by value (empty strings and the
// empty slice included).
func TestBuiltinPayloadTags(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []byte
	}{
		{"pong", []byte{2, 4, 'p', 'o', 'n', 'g'}},
		{"", []byte{2, 0}},
		{[]string{"k", "v"}, []byte{3, 2, 1, 'k', 1, 'v'}},
		{[]string{}, []byte{3, 0}},
	} {
		b, err := EncodePayloadBytes(tc.v)
		if err != nil || !bytes.Equal(b, tc.want) {
			t.Fatalf("%#v encodes as % x (%v), want % x", tc.v, b, err, tc.want)
		}
		got, err := DecodePayloadBytes(b)
		if err != nil || !reflect.DeepEqual(got, tc.v) {
			t.Fatalf("%#v round-trips as %#v (%v)", tc.v, got, err)
		}
	}
}

// TestDecodePayloadRejectsGarbage feeds malformed payload bytes and
// expects typed errors, never panics.
func TestDecodePayloadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                             // missing tag
		{0xFF},                         // truncated uvarint
		{1},                            // the retired gob tag
		{1, 0x03, 1, 2, 3},             // the retired gob tag with a blob
		{4},                            // reserved tag below WireIDFirst with no decoder
		{2},                            // string tag with no length
		{2, 0x05, 'a'},                 // string shorter than its prefix
		{3, 2, 1, 'k'},                 // []string with a missing element
		{3, 0x7f},                      // []string count past the buffer
		{200, 1},                       // unknown registered ID
		wire.AppendUvarint(nil, 1<<40), // absurd tag
	}
	for i, b := range cases {
		if _, err := DecodePayloadBytes(b); err == nil {
			t.Fatalf("case %d (% x): decoded without error", i, b)
		}
	}
}

// TestRequestFrameRoundTrip exercises the header codec including
// method interning: first use carries the name, repeats carry the bare
// ID, and both sides stay in sync across frames.
func TestRequestFrameRoundTrip(t *testing.T) {
	var mi methodIntern
	var mt methodTable
	var scratch []byte
	target := loid.LOID{Domain: "zone-1", Class: "Host", Instance: 31}

	var frames [][]byte
	for i := 0; i < 3; i++ {
		method := "make_reservation"
		if i == 1 {
			method = "query"
		}
		req := request{
			ID:       uint64(100 + i),
			Target:   target,
			Method:   method,
			TraceID:  7,
			SpanID:   8,
			Deadline: 1234567890,
		}
		payload, err := AppendPayload(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, appendRequestFrame(nil, &scratch, &mi, &req, payload))
	}
	// Frames 0 and 2 share a method: frame 2 must be smaller (bare ID).
	if len(frames[2]) >= len(frames[0]) {
		t.Fatalf("repeat-method frame (%dB) not smaller than introducing frame (%dB)",
			len(frames[2]), len(frames[0]))
	}
	wantMethods := []string{"make_reservation", "query", "make_reservation"}
	for i, f := range frames {
		r := wire.NewReader(f)
		if n := r.Len(); n != len(r.B) {
			t.Fatalf("frame %d: length prefix %d over %d bytes", i, n, len(r.B))
		}
		req, err := decodeRequestHeader(&r, &mt)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.ID != uint64(100+i) || req.Method != wantMethods[i] ||
			req.Target != target || req.TraceID != 7 || req.SpanID != 8 ||
			req.Deadline != 1234567890 {
			t.Fatalf("frame %d decoded %+v", i, req)
		}
		if arg, err := DecodePayload(&r); err != nil || arg != nil {
			t.Fatalf("frame %d payload: %v %v", i, arg, err)
		}
	}
}

// TestFrameGoldenBytes pins the frame layout byte for byte: a request
// frame introducing its method (name inline), the repeat (bare ID), and
// a response frame. The bytes were produced by the codec as it stood
// when gob still sat beside it; a diff here is a wire-format change.
func TestFrameGoldenBytes(t *testing.T) {
	var mi methodIntern
	var scratch []byte
	req := request{
		ID:       7,
		Target:   loid.LOID{Domain: "uva", Class: "Host", Instance: 3},
		Method:   "make_reservation",
		TraceID:  0x1234,
		SpanID:   5,
		Deadline: 1_700_000_000_000_000_000,
	}
	payload, err := AppendPayload(nil, benchMsg{Domain: "zone-1", Class: "Worker", ID: 42, Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const tail = "10067a6f6e652d3106576f726b65722a000000000000e03f" // the payload: tag 16 + benchMsg
	for i, tc := range []struct {
		got  []byte
		want string
	}{
		{appendRequestFrame(nil, &scratch, &mi, &req, payload),
			"410703106d616b655f7265736572766174696f6e0375766104486f737403b424058080d0e2c6bfce972f" + tail},
		{appendRequestFrame(nil, &scratch, &mi, &req, payload),
			"3007020375766104486f737403b424058080d0e2c6bfce972f" + tail},
		{appendResponseFrame(nil, &scratch, 7, errKindNotBound, "orb: LOID not bound", payload),
			"2e0702136f72623a204c4f4944206e6f7420626f756e64" + tail},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Fatalf("frame %d:\n got %s\nwant %s", i, got, tc.want)
		}
	}
}
