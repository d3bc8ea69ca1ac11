package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/loid"
)

// slowObj answers "fast" immediately and "slow" after a delay.
type slowObj struct {
	l     loid.LOID
	delay time.Duration
}

func (o *slowObj) LOID() loid.LOID { return o.l }

func (o *slowObj) Dispatch(ctx context.Context, method string, arg any) (any, error) {
	if method == "slow" {
		time.Sleep(o.delay)
	}
	return "done", nil
}

// clientCount returns how many live clients a runtime caches.
func clientCount(rt *Runtime) int {
	rt.clientsMu.Lock()
	defer rt.clientsMu.Unlock()
	return len(rt.clients)
}

// pendingCount sums pending requests across a runtime's cached clients.
func pendingCount(rt *Runtime) int {
	rt.clientsMu.Lock()
	defer rt.clientsMu.Unlock()
	n := 0
	for _, c := range rt.clients {
		c.mu.Lock()
		n += len(c.pending)
		c.mu.Unlock()
	}
	return n
}

// TestDeadClientEvictedAndRedials drops the server side of an
// established connection (listener kept alive) and verifies the cached
// client is evicted promptly and the next call succeeds over a fresh
// dial, instead of failing forever on the dead connection.
func TestDeadClientEvictedAndRedials(t *testing.T) {
	server := NewRuntime("srv")
	obj := &slowObj{l: server.Mint("Echo")}
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

	if _, err := client.Call(ctx, obj.LOID(), "fast", nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if clientCount(client) != 1 {
		t.Fatalf("clients cached: %d, want 1", clientCount(client))
	}

	// Sever every server-side connection; the listener stays up.
	server.mu.RLock()
	s := server.server
	server.mu.RUnlock()
	s.mu.Lock()
	for conn := range s.cs {
		conn.Close()
	}
	s.mu.Unlock()

	// The client's readLoop notices and the eviction hook clears the
	// cache without waiting for the next call.
	deadline := time.Now().Add(2 * time.Second)
	for clientCount(client) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead client never evicted from cache")
		}
		time.Sleep(time.Millisecond)
	}

	// The next call redials transparently.
	if _, err := client.Call(ctx, obj.LOID(), "fast", nil); err != nil {
		t.Fatalf("call after connection loss did not redial: %v", err)
	}
}

// TestCallHonorsContextWhenConnectionWedged writes a payload larger than
// the socket buffers to a peer that never reads, so the flush blocks
// mid-write, and verifies the call returns on ctx expiry (closing the
// now-unusable client, since its stream may be cut mid-frame) instead of
// hanging, with no pending-request leak.
func TestCallHonorsContextWhenConnectionWedged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, aerr := ln.Accept()
		if aerr == nil {
			accepted <- conn // hold open, never read
		}
	}()

	client := NewRuntime("cli")
	defer client.Close()
	target := loid.LOID{Domain: "srv", Class: "Sink", Instance: 1}
	client.Bind(target, ln.Addr().String())

	payload := strings.Repeat("x", 16<<20) // far beyond loopback socket buffers
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, cerr := client.Call(ctx, target, "ingest", payload)
		done <- cerr
	}()

	// Expire the ctx only once the frame's write is verifiably in flight
	// — the case where the stream's integrity is unknown and the client
	// must die. (Expiry before that point excises the frame and keeps the
	// connection, which TestPendingFrameTimeoutLeavesConnectionAlive
	// covers.)
	var c *tcpClient
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c == nil && clientCount(client) == 1 {
			c, _ = client.client(ln.Addr().String())
		}
		if c != nil {
			c.co.mu.Lock()
			inFlight := c.co.writeLo != 0
			c.co.mu.Unlock()
			if inFlight {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged frame's write never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want canceled", err)
	}
	if n := pendingCount(client); n != 0 {
		t.Fatalf("pending requests leaked: %d", n)
	}
	// The wedged client was closed and evicted. The poll exits as soon as
	// eviction lands; the deadline only bounds a genuinely stuck cleanup.
	deadline = time.Now().Add(10 * time.Second)
	for clientCount(client) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedged client never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestPendingFrameTimeoutLeavesConnectionAlive: a frame whose ctx
// expires while it still sits in the coalescer's pending buffer (behind
// a write that is wedged on a peer that never reads) is excised in place
// — nothing of it touched the wire, so the shared connection must not be
// closed: closing it would cascade one short attempt timeout under load
// into connection-wide failures feeding breakers and liveness with false
// positives.
func TestPendingFrameTimeoutLeavesConnectionAlive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, aerr := ln.Accept()
		if aerr == nil {
			accepted <- conn // hold open, never read
		}
	}()

	client := NewRuntime("cli")
	defer client.Close()
	target := loid.LOID{Domain: "srv", Class: "Sink", Instance: 1}
	client.Bind(target, ln.Addr().String())

	// Wedge the flusher: a payload far beyond the socket buffers blocks
	// its conn.Write because the peer never reads.
	bigCtx, bigCancel := context.WithCancel(context.Background())
	defer bigCancel()
	bigDone := make(chan error, 1)
	go func() {
		_, cerr := client.Call(bigCtx, target, "ingest", strings.Repeat("x", 16<<20))
		bigDone <- cerr
	}()

	// Wait until the big frame's write is in flight.
	var c *tcpClient
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c == nil && clientCount(client) == 1 {
			c, _ = client.client(ln.Addr().String())
		}
		if c != nil {
			c.co.mu.Lock()
			inFlight := c.co.writeLo != 0
			c.co.mu.Unlock()
			if inFlight {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("big frame's write never started")
		}
		time.Sleep(time.Millisecond)
	}

	// A second call lands in the pending buffer behind the wedged write;
	// its ctx expires there, so it must be excised without closing the
	// connection.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, target, "probe", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pending call: err=%v, want deadline exceeded", err)
	}
	c.mu.Lock()
	alive := c.err == nil
	c.mu.Unlock()
	if !alive {
		t.Fatal("client closed by a merely-pending frame timeout")
	}
	if clientCount(client) != 1 {
		t.Fatalf("clients cached: %d, want 1 (pending-frame timeout must not evict)", clientCount(client))
	}
	// Only the wedged big call may still be pending.
	if n := pendingCount(client); n != 1 {
		t.Fatalf("pending requests: %d, want 1 (excised call must withdraw)", n)
	}
	c.co.mu.Lock()
	residual := len(c.co.spans)
	c.co.mu.Unlock()
	if residual != 0 {
		t.Fatalf("excised frame left %d spans in the pending buffer", residual)
	}

	bigCancel()
	if err := <-bigDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("wedged call: err=%v, want canceled", err)
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestCtxExpiryLeavesConnectionUsable cancels a call waiting for a slow
// response and verifies the shared connection survives for other calls
// and the abandoned request leaves no pending entry behind.
func TestCtxExpiryLeavesConnectionUsable(t *testing.T) {
	server := NewRuntime("srv")
	obj := &slowObj{l: server.Mint("Echo"), delay: 300 * time.Millisecond}
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := client.Call(ctx, obj.LOID(), "slow", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow call: err=%v, want deadline exceeded", err)
	}
	if n := pendingCount(client); n != 0 {
		t.Fatalf("pending requests leaked after timeout: %d", n)
	}
	// Same cached connection still works.
	if clientCount(client) != 1 {
		t.Fatalf("clients cached: %d, want 1 (connection must survive a timeout)", clientCount(client))
	}
	if res, err := client.Call(context.Background(), obj.LOID(), "fast", nil); err != nil || res != "done" {
		t.Fatalf("fast call after timeout: %v %v", res, err)
	}
}

// TestAbandonedCallNeverCrossDelivers storms one connection with callers
// of which half give up after 1 ms, against a handler that takes 0–2 ms:
// reply slots are recycled between calls, and a slot a caller abandoned
// may still be written by the read loop, so it must never reach another
// caller. Every reply that arrives is the caller's own argument.
func TestAbandonedCallNeverCrossDelivers(t *testing.T) {
	server := NewRuntime("srv")
	obj := &funcObj{l: server.Mint("Echo"), fn: func(arg any) (any, error) {
		s := arg.(string)
		sum := 0
		for i := 0; i < len(s); i++ {
			sum += int(s[i])
		}
		time.Sleep(time.Duration(sum%5) * 500 * time.Microsecond)
		return s, nil
	}}
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	const callers, calls = 64, 300
	var ok, gaveUp, dropped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			timed := g%2 == 1
			for i := 0; i < calls; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if timed {
					ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				}
				want := fmt.Sprintf("caller-%d-call-%d", g, i)
				res, err := client.Call(ctx, obj.LOID(), "echo", want)
				cancel()
				switch {
				case err == nil && res == want:
					ok.Add(1)
				case err == nil:
					t.Errorf("caller %d call %d received %q", g, i, res)
				case timed && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDeadlineExpired)):
					gaveUp.Add(1)
				default:
					// A caller that gives up while its frame is mid-write
					// cuts the stream by design: everyone pending on it
					// fails fast and the next call redials.
					dropped.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d replies, %d abandoned, %d failed with their connection", ok.Load(), gaveUp.Load(), dropped.Load())
	if ok.Load() == 0 || gaveUp.Load() == 0 {
		t.Fatalf("storm exercised one arm only: %d replies, %d abandoned", ok.Load(), gaveUp.Load())
	}
	if n := pendingCount(client); n != 0 {
		t.Fatalf("%d requests still pending after every caller returned", n)
	}
	if dropped.Load() == 0 && clientCount(client) != 1 {
		t.Fatalf("connection did not survive the storm: %d cached clients", clientCount(client))
	}
	if res, err := client.Call(context.Background(), obj.LOID(), "echo", "after"); err != nil || res != "after" {
		t.Fatalf("call after the storm: %v, %v", res, err)
	}
}
