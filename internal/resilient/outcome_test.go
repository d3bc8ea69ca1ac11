package resilient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/reservation"
)

// outcomeRow is one way a callee can answer, and what the resilience
// layer must make of it.
type outcomeRow struct {
	name   string
	method string // called on the object; "" calls a LOID nothing is bound to
	ret    error  // what the handler returns; nil when no handler runs
	class  Class
	is     error // a sentinel errors.Is must find, or nil
}

// eofAnswer is a handler's own error whose text names a transport fault.
var eofAnswer = errors.New("config: unexpected EOF in record 3")

// outcomeRows are the answers: every host and reservation sentinel, an
// application shed, the runtime's refusals, and a handler error whose
// text names a transport fault.
func outcomeRows() []outcomeRow {
	var rows []outcomeRow
	for _, s := range []error{
		host.ErrPolicy, host.ErrVaultUnreachable, host.ErrUnknownObject,
		reservation.ErrConflict, reservation.ErrInvalidToken, reservation.ErrExpired,
		reservation.ErrNotYetValid, reservation.ErrBadRequest,
	} {
		rows = append(rows, outcomeRow{name: s.Error(), ret: fmt.Errorf("%w: detail", s), class: ClassPermanent})
	}
	rows = append(rows,
		outcomeRow{name: "application shed", ret: fmt.Errorf("%w: make_reservations shed (queue full)", orb.ErrOverload),
			class: ClassPermanent, is: orb.ErrOverload},
		outcomeRow{name: "handler error naming EOF", ret: eofAnswer, class: ClassPermanent},
		outcomeRow{name: "not bound", class: ClassPermanent, is: orb.ErrNotBound},
		outcomeRow{name: "no method", method: "nosuch", class: ClassPermanent, is: orb.ErrNoMethod},
	)
	for i := range rows {
		if rows[i].ret != nil {
			rows[i].method = fmt.Sprintf("m%d", i)
		}
	}
	return rows
}

// outcomeServer registers an object answering each row's method with
// the row's error, and counts how often each handler ran.
func outcomeServer(rt *orb.Runtime, rows []outcomeRow) (loid.LOID, map[string]*atomic.Int64) {
	obj := orb.NewServiceObject(rt.Mint("Outcome"))
	runs := make(map[string]*atomic.Int64)
	for _, r := range rows {
		if r.ret == nil {
			continue
		}
		n, ret := new(atomic.Int64), r.ret
		runs[r.method] = n
		obj.Handle(r.method, func(context.Context, any) (any, error) {
			n.Add(1)
			return nil, ret
		})
	}
	rt.Register(obj)
	return obj.LOID(), runs
}

// TestCallOutcomeAcrossPaths holds that how a call ended is read from
// the error's type, never its text, and reads the same on each path a
// call can take: dispatched in process, through the loopback codec, and
// over TCP. An answer is final, so a retrying Caller runs its handler
// once. The transport rows (a server's shed, a peer that closes
// mid-call, a dial to a closed port) exist only over TCP.
func TestCallOutcomeAcrossPaths(t *testing.T) {
	ctx := context.Background()
	rows := outcomeRows()
	retry := Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Jitter: -1}

	type path struct {
		inv      *orb.Runtime
		obj, nob loid.LOID
		runs     map[string]*atomic.Int64
	}
	paths := []struct {
		name  string
		build func(t *testing.T) path
	}{
		{"in-process", func(t *testing.T) path {
			rt := orb.NewRuntime("srv")
			obj, runs := outcomeServer(rt, rows)
			return path{rt, obj, rt.Mint("Ghost"), runs}
		}},
		{"loopback", func(t *testing.T) path {
			rt := orb.NewRuntime("srv")
			rt.SetLoopbackCodec(true)
			obj, runs := outcomeServer(rt, rows)
			return path{rt, obj, rt.Mint("Ghost"), runs}
		}},
		{"tcp", func(t *testing.T) path {
			srv, addr := listen(t, "srv")
			obj, runs := outcomeServer(srv, rows)
			cli := orb.NewRuntime("cli")
			t.Cleanup(func() { cli.Close() })
			cli.BindDomain("srv", addr)
			return path{cli, obj, srv.Mint("Ghost"), runs}
		}},
	}
	for _, pt := range paths {
		t.Run(pt.name, func(t *testing.T) {
			p := pt.build(t)
			c := NewCaller(p.inv, retry, nil)
			for _, r := range rows {
				target, method := p.obj, r.method
				if method == "" {
					target, method = p.nob, "echo"
				}
				_, err := Invoke[any, any](ctx, c, retry, target, method, nil)
				checkOutcome(t, r.name, err, r.class, false, r.is)
				if r.ret != nil {
					if n := p.runs[r.method].Load(); n != 1 {
						t.Errorf("%s: the handler ran %d times, want 1", r.name, n)
					}
				}
			}
		})
	}

	t.Run("tcp-shed", func(t *testing.T) {
		srv, addr := listen(t, "srv")
		var entered atomic.Int64
		var echoed atomic.Int64
		release := make(chan struct{})
		obj := orb.NewServiceObject(srv.Mint("Busy"))
		obj.Handle("hold", func(context.Context, any) (any, error) {
			entered.Add(1)
			<-release
			return nil, nil
		})
		obj.Handle("echo", func(_ context.Context, arg any) (any, error) {
			echoed.Add(1)
			return arg, nil
		})
		srv.Register(obj)
		cli := orb.NewRuntime("cli")
		defer cli.Close()
		cli.Bind(obj.LOID(), addr)

		var holders sync.WaitGroup
		for i := 0; i < orb.DefaultServerLimit; i++ {
			holders.Add(1)
			go func() {
				defer holders.Done()
				if _, err := cli.Call(ctx, obj.LOID(), "hold", nil); err != nil {
					t.Errorf("holder: %v", err)
				}
			}()
		}
		defer holders.Wait()
		defer close(release)
		for deadline := time.Now().Add(10 * time.Second); entered.Load() < orb.DefaultServerLimit; {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d holders entered", entered.Load(), orb.DefaultServerLimit)
			}
			time.Sleep(time.Millisecond)
		}
		_, err := Invoke[any](ctx, NewCaller(cli, retry, nil), retry, obj.LOID(), "echo", "x")
		checkOutcome(t, "server shed", err, ClassPermanent, false, orb.ErrOverload)
		if n := echoed.Load(); n != 0 {
			t.Errorf("a shed frame reached its handler %d times", n)
		}
	})

	t.Run("tcp-peer-close", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				// The preamble and the first byte of a request, then gone.
				var b [5]byte
				_, _ = io.ReadFull(conn, b[:])
				conn.Close()
			}
		}()
		cli := orb.NewRuntime("cli")
		defer cli.Close()
		target := loid.LOID{Domain: "peer", Class: "Any", Instance: 1}
		cli.Bind(target, ln.Addr().String())
		_, err = cli.Call(ctx, target, "m", nil)
		checkOutcome(t, "peer close", err, ClassRetryable, false, orb.ErrConnLost)
	})

	t.Run("tcp-closed-port", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		cli := orb.NewRuntime("cli")
		defer cli.Close()
		target := loid.LOID{Domain: "gone", Class: "Any", Instance: 1}
		cli.Bind(target, addr)
		_, err = cli.Call(ctx, target, "m", nil)
		checkOutcome(t, "closed port", err, ClassRetryable, true, orb.ErrUnreachable)
	})

	// An answer is no strike: two calls to a live endpoint whose handler
	// errs with transport words run it twice and leave its breaker closed.
	t.Run("tcp-breaker", func(t *testing.T) {
		srv, addr := listen(t, "srv")
		var runs atomic.Int64
		obj := orb.NewServiceObject(srv.Mint("Config"))
		obj.Handle("load", func(context.Context, any) (any, error) {
			runs.Add(1)
			return nil, eofAnswer
		})
		srv.Register(obj)
		cli := orb.NewRuntime("cli")
		defer cli.Close()
		cli.Bind(obj.LOID(), addr)
		breakers := NewBreakerSet(BreakerConfig{}, nil)
		c := NewCaller(cli, retry, breakers)
		for i := 0; i < 2; i++ {
			if _, err := Invoke[any, any](ctx, c, retry, obj.LOID(), "load", nil); Classify(err) != ClassPermanent {
				t.Errorf("call %d: %v classed %v", i, err, Classify(err))
			}
		}
		if n := runs.Load(); n != 2 {
			t.Errorf("two calls ran the handler %d times, want 2", n)
		}
		if s := breakers.ForLOID(obj.LOID()).State(); s != Closed {
			t.Errorf("breaker %v after two answers, want closed", s)
		}
	})
}

// listen serves a fresh runtime on loopback TCP until the test ends.
func listen(t *testing.T, domain string) (*orb.Runtime, string) {
	t.Helper()
	rt := orb.NewRuntime(domain)
	addr, err := rt.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, addr
}

// checkOutcome asserts what the resilience layer reads from err. An
// error the connection produced is the caller's own, never the callee's
// answer.
func checkOutcome(t *testing.T, name string, err error, class Class, never bool, is error) {
	t.Helper()
	if got := Classify(err); got != class {
		t.Errorf("%s: Classify(%v) = %v, want %v", name, err, got, class)
	}
	if got := NeverReached(err); got != never {
		t.Errorf("%s: NeverReached(%v) = %v, want %v", name, err, got, never)
	}
	if is != nil && !errors.Is(err, is) {
		t.Errorf("%s: %v is not %v", name, err, is)
	}
	var remote *orb.RemoteError
	if class == ClassRetryable && errors.As(err, &remote) {
		t.Errorf("%s: a connection failure came back as the callee's answer %q", name, remote.Msg)
	}
}
