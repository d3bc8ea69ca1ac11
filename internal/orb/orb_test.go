package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/wire"
)

// echoArg is a wire-registered test message.
type echoArg struct {
	N int
	S string
}

func (m echoArg) AppendWire(b []byte) []byte {
	return wire.AppendString(wire.AppendVarint(b, int64(m.N)), m.S)
}

func (m *echoArg) DecodeWire(r *wire.Reader) {
	m.N = int(r.Varint())
	m.S = r.Str()
}

func init() {
	RegisterWireMessage(testWireEchoArg, func(r *wire.Reader) (m echoArg) { m.DecodeWire(r); return })
}

func newEcho(rt *Runtime) *ServiceObject {
	obj := NewServiceObject(rt.Mint("Echo"))
	obj.Handle("echo", func(_ context.Context, arg any) (any, error) {
		return arg, nil
	})
	obj.Handle("fail", func(_ context.Context, _ any) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	obj.Handle("double", func(_ context.Context, arg any) (any, error) {
		a, ok := arg.(echoArg)
		if !ok {
			return nil, fmt.Errorf("want echoArg, got %T", arg)
		}
		return echoArg{N: a.N * 2, S: a.S + a.S}, nil
	})
	rt.Register(obj)
	return obj
}

func TestLocalCall(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	got, err := rt.Call(context.Background(), obj.LOID(), "double", echoArg{N: 21, S: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(echoArg); g.N != 42 || g.S != "abab" {
		t.Errorf("got %+v", g)
	}
}

func TestLocalCallErrors(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	ctx := context.Background()

	if _, err := rt.Call(ctx, obj.LOID(), "nosuch", nil); !errors.Is(err, ErrNoMethod) {
		t.Errorf("want ErrNoMethod, got %v", err)
	}
	if _, err := rt.Call(ctx, loid.LOID{Domain: "x", Class: "Y", Instance: 9}, "echo", nil); !errors.Is(err, ErrNotBound) {
		t.Errorf("want ErrNotBound, got %v", err)
	}
	if _, err := rt.Call(ctx, loid.Nil, "echo", nil); !errors.Is(err, ErrNotBound) {
		t.Errorf("nil LOID: want ErrNotBound, got %v", err)
	}
	if _, err := rt.Call(ctx, obj.LOID(), "fail", nil); err == nil || err.Error() != "deliberate failure" {
		t.Errorf("want method error, got %v", err)
	}
}

func TestUnregisterThenReactivate(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	ctx := context.Background()
	rt.Unregister(obj.LOID())
	if _, err := rt.Call(ctx, obj.LOID(), "echo", nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("want ErrNotBound after unregister, got %v", err)
	}
	rt.Register(obj) // reactivation
	if _, err := rt.Call(ctx, obj.LOID(), "echo", echoArg{}); err != nil {
		t.Fatalf("after re-register: %v", err)
	}
}

func TestRemoteCallViaTCP(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	obj := newEcho(server)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if server.Addr() != addr {
		t.Errorf("Addr() = %q want %q", server.Addr(), addr)
	}

	client := NewRuntime("sdsc")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	got, err := client.Call(context.Background(), obj.LOID(), "double", echoArg{N: 5, S: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(echoArg); g.N != 10 || g.S != "xx" {
		t.Errorf("got %+v", g)
	}
}

func TestRemoteErrorsCrossWire(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	obj := newEcho(server)
	addr, _ := server.ListenAndServe("127.0.0.1:0")

	client := NewRuntime("sdsc")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	unbound := loid.LOID{Domain: "uva", Class: "Ghost", Instance: 77}
	client.Bind(unbound, addr)
	ctx := context.Background()

	if _, err := client.Call(ctx, obj.LOID(), "nosuch", nil); !errors.Is(err, ErrNoMethod) {
		t.Errorf("want ErrNoMethod over wire, got %v", err)
	}
	if _, err := client.Call(ctx, unbound, "echo", nil); !errors.Is(err, ErrNotBound) {
		t.Errorf("want ErrNotBound over wire, got %v", err)
	}
	_, err := client.Call(ctx, obj.LOID(), "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "deliberate failure" {
		t.Errorf("want RemoteError(deliberate failure), got %v", err)
	}
}

func TestDomainBinding(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	obj := newEcho(server)
	addr, _ := server.ListenAndServe("127.0.0.1:0")

	client := NewRuntime("sdsc")
	defer client.Close()
	client.BindDomain("uva", addr) // no per-LOID binding
	got, err := client.Call(context.Background(), obj.LOID(), "echo", echoArg{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.(echoArg).N != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestConcurrentRemoteCalls(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	obj := newEcho(server)
	addr, _ := server.ListenAndServe("127.0.0.1:0")

	client := NewRuntime("sdsc")
	defer client.Close()
	client.Bind(obj.LOID(), addr)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := g*1000 + i
				got, err := client.Call(context.Background(), obj.LOID(), "echo", echoArg{N: want})
				if err != nil {
					errs <- err
					return
				}
				if got.(echoArg).N != want {
					errs <- fmt.Errorf("mismatched response: got %d want %d", got.(echoArg).N, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFaultInjection(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	var n atomic.Int64
	rt.SetFaultInjector(func(target loid.LOID, method string) error {
		if method == "echo" && n.Add(1) <= 2 {
			return fmt.Errorf("%w: first calls fail", ErrInjectedFault)
		}
		return nil
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := rt.Call(ctx, obj.LOID(), "echo", nil); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("call %d: want injected fault, got %v", i, err)
		}
	}
	if _, err := rt.Call(ctx, obj.LOID(), "echo", echoArg{}); err != nil {
		t.Fatalf("third call should succeed: %v", err)
	}
	rt.SetFaultInjector(nil)
	if _, err := rt.Call(ctx, obj.LOID(), "echo", echoArg{}); err != nil {
		t.Fatalf("after clearing injector: %v", err)
	}
}

func TestLatencySimulationAndCancellation(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	rt.SetLatency(20*time.Millisecond, 0)

	start := time.Now()
	if _, err := rt.Call(context.Background(), obj.LOID(), "echo", echoArg{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := rt.Call(ctx, obj.LOID(), "echo", echoArg{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("want deadline exceeded, got %v", err)
	}
}

func TestTracer(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	var mu sync.Mutex
	var calls []string
	rt.SetTracer(func(caller string, target loid.LOID, method string, _ time.Duration, err error) {
		mu.Lock()
		calls = append(calls, fmt.Sprintf("%s->%s.%s err=%v", caller, target.Short(), method, err != nil))
		mu.Unlock()
	})
	ctx := context.Background()
	rt.Call(ctx, obj.LOID(), "echo", echoArg{})
	rt.Call(ctx, obj.LOID(), "fail", nil)
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("tracer saw %d calls: %v", len(calls), calls)
	}
	if calls[0] != fmt.Sprintf("uva->%s.echo err=false", obj.LOID().Short()) {
		t.Errorf("trace[0] = %q", calls[0])
	}
	if calls[1] != fmt.Sprintf("uva->%s.fail err=true", obj.LOID().Short()) {
		t.Errorf("trace[1] = %q", calls[1])
	}
}

func TestServerCloseFailsPendingClients(t *testing.T) {
	server := NewRuntime("uva")
	slow := NewServiceObject(server.Mint("Slow"))
	release := make(chan struct{})
	slow.Handle("wait", func(ctx context.Context, _ any) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			// Server shutdown: report the cancellation rather than
			// fabricating a success.
			return nil, ctx.Err()
		}
	})
	server.Register(slow)
	addr, _ := server.ListenAndServe("127.0.0.1:0")

	client := NewRuntime("sdsc")
	defer client.Close()
	client.Bind(slow.LOID(), addr)

	done := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), slow.LOID(), "wait", nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the call reach the server
	server.Close()
	close(release)
	select {
	case err := <-done:
		if err == nil {
			t.Error("call should fail when server closes")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call did not complete after server close")
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	server := NewRuntime("uva")
	obj := newEcho(server)
	addr, _ := server.ListenAndServe("127.0.0.1:0")

	client := NewRuntime("sdsc")
	defer client.Close()
	client.Bind(obj.LOID(), addr)
	ctx := context.Background()

	if _, err := client.Call(ctx, obj.LOID(), "echo", echoArg{N: 1}); err != nil {
		t.Fatal(err)
	}
	server.Close()
	// Calls now fail...
	if _, err := client.Call(ctx, obj.LOID(), "echo", echoArg{N: 2}); err == nil {
		t.Fatal("want failure while server down")
	}
	// ...restart the server on the same address; the client should dial a
	// fresh connection transparently.
	server2 := NewRuntime("uva")
	defer server2.Close()
	server2.Register(obj)
	if _, err := server2.ListenAndServe(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := client.Call(ctx, obj.LOID(), "echo", echoArg{N: 3}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDoubleListenRejected(t *testing.T) {
	rt := NewRuntime("uva")
	defer rt.Close()
	if _, err := rt.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Error("second ListenAndServe should fail")
	}
}

func TestLocalsAndLookup(t *testing.T) {
	rt := NewRuntime("uva")
	a := newEcho(rt)
	b := newEcho(rt)
	ls := rt.Locals()
	if len(ls) != 2 {
		t.Fatalf("Locals = %v", ls)
	}
	if o, ok := rt.Lookup(a.LOID()); !ok || o != a {
		t.Error("Lookup(a) failed")
	}
	if _, ok := rt.Lookup(loid.LOID{Domain: "x", Class: "y", Instance: 1}); ok {
		t.Error("Lookup of unknown LOID succeeded")
	}
	_ = b
}

func TestServiceObjectMethods(t *testing.T) {
	rt := NewRuntime("uva")
	obj := newEcho(rt)
	ms := obj.Methods()
	want := map[string]bool{"echo": true, "fail": true, "double": true}
	if len(ms) != len(want) {
		t.Fatalf("Methods() = %v", ms)
	}
	for _, m := range ms {
		if !want[m] {
			t.Errorf("unexpected method %q", m)
		}
	}
}

func TestRegisterNilLOIDPanics(t *testing.T) {
	rt := NewRuntime("uva")
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	rt.Register(NewServiceObject(loid.Nil))
}
