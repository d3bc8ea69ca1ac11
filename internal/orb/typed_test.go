package orb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/telemetry"
	"legion/internal/wire"
)

// typedPair is a client runtime and, across one loopback connection, a
// ServiceObject that echoes a benchMsg by value three ways: "typed"
// (Typed), "shared" (SharedTyped, from a class-wide table), and "boxed"
// (Handle), which echoes whatever it is given.
func typedPair(tb testing.TB) (client, server *Runtime, obj *ServiceObject, addr string) {
	tb.Helper()
	table := NewDispatchTable()
	table.HandleTyped("shared", SharedTyped(func(_ context.Context, _ *ServiceObject, a benchMsg) (benchMsg, error) {
		return a, nil
	}))
	client, target := loopbackPair(tb, telemetry.NewRegistry, func(srv *Runtime) Object {
		server = srv
		so := new(ServiceObject)
		so.InitShared(server.Mint("Typed"), table, so)
		so.HandleTyped("typed", Typed(func(_ context.Context, a benchMsg) (benchMsg, error) {
			return a, nil
		}))
		so.Handle("boxed", func(_ context.Context, arg any) (any, error) { return arg, nil })
		return so
	})
	client.mu.RLock()
	addr = client.remote[target.LOID()]
	client.mu.RUnlock()
	return client, server, target.(*ServiceObject), addr
}

// TestTypedRemoteCallAllocBudget pins what one typed call over loopback
// TCP allocates, client and server together, under
// TestRemoteCallAllocBudget's conditions: a benchMsg — two strings, an
// integer and a float, so not pointer-shaped — sent through Invoke to a
// method registered through Typed, and echoed back. It crosses the
// socket as a value both ways, so what is left is the server's span and
// its deadline context. The same message boxed once through Call to a
// Handle method reads two more: it is boxed again by the decode on each
// side. Before the typed path crossed the socket, Invoke read four more.
func TestTypedRemoteCallAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceSlack != 0 {
		// The typed path goes through more pools than the boxed path
		// (the client's copy of the reply and its reader), and the race
		// detector drops a share of what is put back in each, at random:
		// it reads about 4 to the boxed path's 6.
		t.Skip("the race detector drops pooled buffers at random")
	}
	const budget = 2
	client, _, obj, _ := typedPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	msg := benchMsg{Domain: "zone-1", Class: "Host", ID: 31, Load: 0.5}
	var boxed any = msg // boxed once, not per call
	typed := func() {
		if res, err := Invoke[benchMsg](ctx, client, obj.LOID(), "typed", msg); err != nil || res != msg {
			t.Fatalf("typed echo: %v, %v", res, err)
		}
	}
	call := func() {
		if res, err := client.Call(ctx, obj.LOID(), "boxed", boxed); err != nil || res != boxed {
			t.Fatalf("boxed echo: %v, %v", res, err)
		}
	}
	for i := 0; i < 100; i++ { // dial, intern the methods, park a worker
		typed()
		call()
	}
	gotTyped := testing.AllocsPerRun(2000, typed)
	gotBoxed := testing.AllocsPerRun(2000, call)
	if gotTyped > budget || gotTyped >= gotBoxed {
		t.Errorf("%.1f allocations per typed remote call, budget %d and below the boxed call's %.1f", gotTyped, budget, gotBoxed)
	} else {
		t.Logf("%.1f allocations per typed remote call (budget %d), %.1f boxed", gotTyped, budget, gotBoxed)
	}
}

// TestTypedRemoteSkew: a typed method served from the socket meets a
// peer of another version as the boxed path does. An argument of another
// registered type gets argAs's error, whether the caller sent it typed
// or boxed, and a reply of another type gets As's. A malformed payload,
// whichever way it is malformed, gets the error the read loop gives a
// boxed method, before any hook runs: with a fault injector that fails
// every call, it still gets the decode error, where a whole payload gets
// the fault. After each, the same connection serves the next call.
func TestTypedRemoteSkew(t *testing.T) {
	client, server, obj, addr := typedPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	msg := benchMsg{Domain: "zone-1", Class: "Host", ID: 31, Load: 0.5}
	other := echoArg{N: 1, S: "one"}
	c, err := client.client(addr)
	if err != nil {
		t.Fatal(err)
	}
	serving := func(when string) {
		t.Helper()
		if again, _ := client.client(addr); again != c {
			t.Fatalf("%s: the connection was replaced", when)
		}
		if res, err := Invoke[benchMsg](ctx, client, obj.LOID(), "typed", msg); err != nil || res != msg {
			t.Fatalf("%s: next call: %v, %v", when, res, err)
		}
	}
	serving("first call")
	for _, method := range []string{"typed", "shared"} {
		wantArg := fmt.Sprintf("orb: want argument %T, got %T", msg, other)
		if _, err := Invoke[benchMsg](ctx, client, obj.LOID(), method, other); err == nil || err.Error() != wantArg {
			t.Errorf("%s, typed argument of another type: %v, want %q", method, err, wantArg)
		}
		serving(method + ", typed argument of another type")
		if _, err := client.Call(ctx, obj.LOID(), method, other); err == nil || err.Error() != wantArg {
			t.Errorf("%s, boxed argument of another type: %v, want %q", method, err, wantArg)
		}
		serving(method + ", boxed argument of another type")
		wantReply := fmt.Sprintf("orb: unexpected reply %T", msg)
		if _, err := Invoke[echoArg](ctx, client, obj.LOID(), method, msg); err == nil || err.Error() != wantReply {
			t.Errorf("%s, reply of another type: %v, want %q", method, err, wantReply)
		}
		serving(method + ", reply of another type")
	}

	good, err := AppendPayload(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawConn(t, addr)
	br := bufio.NewReader(conn)
	var mi methodIntern
	var scratch []byte
	var id uint64
	send := func(method string, payload []byte) response {
		t.Helper()
		id++
		req := request{ID: id, Target: obj.LOID(), Method: method}
		if _, err := conn.Write(appendRequestFrame(nil, &scratch, &mi, &req, payload)); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := readResponse(br)
		if err != nil || resp.ID != id {
			t.Fatalf("read: response %d, %v; want response %d", resp.ID, err, id)
		}
		return resp
	}
	const fault = "injected fault"
	for _, hooked := range []bool{false, true} {
		if hooked {
			server.SetFaultInjector(func(loid.LOID, string) error { return errors.New(fault) })
		}
		for _, bad := range []struct {
			name    string
			payload []byte
		}{
			{"empty", nil},
			{"corrupt tag", []byte{0x80}},
			{"unknown tag", wire.AppendUvarint(nil, 999)},
			{"truncated", good[:len(good)-3]},
			{"trailing byte", append(append([]byte(nil), good...), 0)},
		} {
			want := send("boxed", bad.payload)
			if want.ErrMsg == "" || strings.Contains(want.ErrMsg, fault) {
				t.Fatalf("%s: the boxed method answered %q", bad.name, want.ErrMsg)
			}
			for _, method := range []string{"typed", "shared"} {
				if got := send(method, bad.payload); got.ErrKind != want.ErrKind || got.ErrMsg != want.ErrMsg {
					t.Errorf("%s to %s, injector %v: error %d %q, want %d %q", bad.name, method, hooked, got.ErrKind, got.ErrMsg, want.ErrKind, want.ErrMsg)
				}
				resp := send(method, good)
				if ok := resp.ErrMsg == "" && resp.Result == msg; hooked == ok || hooked && !strings.Contains(resp.ErrMsg, fault) {
					t.Fatalf("%s to %s, injector %v: next frame: %v, %q", bad.name, method, hooked, resp.Result, resp.ErrMsg)
				}
			}
		}
	}
	server.SetFaultInjector(nil)
	serving("malformed payloads")
}

// TestTypedDecodeOwnsItsBytes: a value decoded on the typed path owns
// its memory. The server's read loop decodes a request's payload from a
// frame buffer it reuses for the next frame, and the client decodes a
// reply's from a pooled copy the next call reuses, so a value aliasing
// one would change under its holder; each call here fills the same
// buffers with other bytes of the same length.
func TestTypedDecodeOwnsItsBytes(t *testing.T) {
	kept := make(chan echoArg, 2)
	client, obj := loopbackPair(t, telemetry.NewRegistry, func(server *Runtime) Object {
		so := NewServiceObject(server.Mint("Keep"))
		so.HandleTyped("keep", Typed(func(_ context.Context, a echoArg) (echoArg, error) {
			kept <- a
			return a, nil
		}))
		return so
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	first, second := echoArg{N: 1, S: "aaaaaaaa"}, echoArg{N: 2, S: "bbbbbbbb"}
	reply, err := Invoke[echoArg](ctx, client, obj.LOID(), "keep", first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Invoke[echoArg](ctx, client, obj.LOID(), "keep", second); err != nil {
		t.Fatal(err)
	}
	if got := <-kept; got != first {
		t.Errorf("the server's first argument reads %+v after the second call, want %+v", got, first)
	}
	if reply != first {
		t.Errorf("the first reply reads %+v after the second call, want %+v", reply, first)
	}
}

// TestTypedRemoteConcurrent: many typed calls in flight on one
// connection each get their own argument back. The server holds each
// decoded argument in a recycled *A between its read loop and its
// handler, so a holder handed out twice, or put back before its value
// was taken out, would answer one caller with another's message.
func TestTypedRemoteConcurrent(t *testing.T) {
	client, _, obj, _ := typedPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const callers, calls = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				method := [...]string{"typed", "shared"}[i%2]
				msg := benchMsg{Domain: "zone-1", Class: "Host", ID: uint64(g*calls + i), Load: float64(i)}
				if res, err := Invoke[benchMsg](ctx, client, obj.LOID(), method, msg); err != nil || res != msg {
					t.Errorf("caller %d, call %d to %s: %+v, %v; want %+v", g, i, method, res, err, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
