package orb

import (
	"bufio"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/telemetry"
)

// deadlineObj records the context deadline each invocation observed.
type deadlineObj struct {
	l        loid.LOID
	invoked  atomic.Int64
	deadline atomic.Int64 // UnixNano of last observed deadline, 0 = none
}

func (o *deadlineObj) LOID() loid.LOID { return o.l }

func (o *deadlineObj) Dispatch(ctx context.Context, method string, arg any) (any, error) {
	o.invoked.Add(1)
	if d, ok := ctx.Deadline(); ok {
		o.deadline.Store(d.UnixNano())
	} else {
		o.deadline.Store(0)
	}
	return "ok", nil
}

// TestDeadlinePropagatesAcrossRuntimes verifies that a caller's context
// deadline rides the TCP frame and is reconstructed as a server-side
// context deadline: the handler observes a deadline within ~1 RTT of
// (here: effectively identical to) the client's.
func TestDeadlinePropagatesAcrossRuntimes(t *testing.T) {
	server := NewRuntime("srv")
	obj := &deadlineObj{l: server.Mint("Clock")}
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	want := time.Now().Add(2 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := client.Call(ctx, obj.LOID(), "probe", nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	got := obj.deadline.Load()
	if got == 0 {
		t.Fatal("handler observed no context deadline")
	}
	// Same process, same clock: the reconstructed deadline should match
	// the client's to the nanosecond; allow 50ms of slack for a combined
	// parent-context deadline or clock adjustment.
	if diff := time.Duration(got - want.UnixNano()); diff < -50*time.Millisecond || diff > 50*time.Millisecond {
		t.Fatalf("server-side deadline off by %v (got %d, want %d)", diff, got, want.UnixNano())
	}

	// Without a caller deadline, none should be fabricated server-side.
	if _, err := client.Call(context.Background(), obj.LOID(), "probe", nil); err != nil {
		t.Fatalf("call without deadline: %v", err)
	}
	if got := obj.deadline.Load(); got != 0 {
		t.Fatalf("handler observed spurious deadline %d with deadline-free caller", got)
	}
}

// TestExpiredFrameRefusedWithoutDispatch sends a frame whose propagated
// deadline already passed (by hand — the high-level client refuses to
// send on an expired ctx) and verifies the server refuses it with
// ErrDeadlineExpired without ever invoking the method, and counts the
// shed in legion_orb_deadline_expired_total.
func TestExpiredFrameRefusedWithoutDispatch(t *testing.T) {
	reg := telemetry.NewRegistry()
	server := NewRuntime("srv")
	server.SetMetrics(reg)
	obj := &deadlineObj{l: server.Mint("Clock")}
	server.Register(obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	// A method labels the server's metrics once a dispatch of it has
	// returned; until then an expired frame counts under "unknown".
	client := NewRuntime("cli")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	if _, err := client.Call(context.Background(), obj.LOID(), "probe", nil); err != nil {
		t.Fatal(err)
	}
	obj.invoked.Store(0)

	conn := rawConn(t, addr)
	req := request{
		ID:       7,
		Target:   obj.LOID(),
		Method:   "probe",
		Deadline: time.Now().Add(-time.Second).UnixNano(),
	}
	var mi methodIntern
	var scratch []byte
	if _, err := conn.Write(appendRequestFrame(nil, &scratch, &mi, &req, []byte{payloadNil})); err != nil {
		t.Fatalf("write: %v", err)
	}
	resp, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if resp.ID != req.ID {
		t.Fatalf("response ID = %d, want %d", resp.ID, req.ID)
	}
	if resp.ErrKind != errKindDeadline {
		t.Fatalf("ErrKind = %d, want %d (deadline); msg %q", resp.ErrKind, errKindDeadline, resp.ErrMsg)
	}
	if derr := decodeErr(resp.ErrKind, resp.ErrMsg); !errors.Is(derr, ErrDeadlineExpired) {
		t.Fatalf("decoded error %v does not match ErrDeadlineExpired", derr)
	}
	if n := obj.invoked.Load(); n != 0 {
		t.Fatalf("method invoked %d times for an expired-on-arrival frame", n)
	}
	if n := reg.CounterValue("legion_orb_deadline_expired_total", "method", "probe"); n != 1 {
		t.Fatalf("legion_orb_deadline_expired_total = %v, want 1", n)
	}
}

// TestDeadlineOnTheLinkIsARefusal: a caller whose deadline passes during
// the simulated link latency gets the refusal the TCP server gives a
// frame that arrives expired — the method never ran, and the error says
// so — while remaining the context's own error. A cancelled caller is
// not a deadline and stays a bare cancellation. The Wrapper relies on
// the refusal to release the reservations of an episode whose
// enact_schedule died on the link (the leak behind the flaky overload
// storm conservation test).
func TestDeadlineOnTheLinkIsARefusal(t *testing.T) {
	rt := NewRuntime("uva")
	obj := &deadlineObj{l: rt.Mint("Clock")}
	rt.Register(obj)
	rt.SetLatency(50*time.Millisecond, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := rt.Call(ctx, obj.LOID(), "probe", nil)
	if !errors.Is(err, ErrDeadlineExpired) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline on the link: err=%v, want ErrDeadlineExpired wrapping DeadlineExceeded", err)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, ccancel)
	_, err = rt.Call(cctx, obj.LOID(), "probe", nil)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("cancel on the link: err=%v, want a bare context.Canceled", err)
	}
	if n := obj.invoked.Load(); n != 0 {
		t.Fatalf("method invoked %d times by calls that died on the link", n)
	}
}
