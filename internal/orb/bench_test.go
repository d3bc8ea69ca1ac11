package orb

import (
	"context"
	"testing"
	"time"

	"legion/internal/loid"
	"legion/internal/telemetry"
	"legion/internal/wire"
)

// benchMsg is a modest registered RPC argument.
type benchMsg struct {
	Domain string
	Class  string
	ID     uint64
	Load   float64
}

func (m benchMsg) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, m.Domain)
	b = wire.AppendString(b, m.Class)
	b = wire.AppendUvarint(b, m.ID)
	return wire.AppendFloat64(b, m.Load)
}

func (m *benchMsg) DecodeWire(r *wire.Reader) {
	m.Domain = r.Sym()
	m.Class = r.Sym()
	m.ID = r.Uvarint()
	m.Load = r.Float64()
}

// Test-binary registry: orb's tests never import proto, whose IDs start
// at WireIDFirst, so the first IDs are free here.
const (
	testWireBenchMsg = WireIDFirst + iota
	testWireEchoArg
	testWireLOID
)

func init() {
	RegisterWireMessage(testWireBenchMsg, func(r *wire.Reader) (m benchMsg) { m.DecodeWire(r); return })
}

// loopbackPair starts a server runtime with obj registered and a client
// runtime bound to it over loopback TCP, each with its own registry.
func loopbackPair(tb testing.TB, reg func() *telemetry.Registry, register func(server *Runtime) Object) (client *Runtime, target Object) {
	tb.Helper()
	server := NewRuntime("srv")
	server.SetMetrics(reg())
	target = register(server)
	server.Register(target)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { server.Close() })
	client = NewRuntime("cli")
	client.SetMetrics(reg())
	tb.Cleanup(func() { client.Close() })
	client.Bind(target.LOID(), addr)
	return client, target
}

// TestRemoteCallAllocBudget pins what one call over loopback TCP
// allocates, client and server together (both runtimes are in this
// process), with enabled registries and a caller deadline as a placement
// has: the smallest registered message echoed back. 18 when every frame
// got a goroutine, a reply channel, two built metric keys and a
// concatenated span name; 12 since those are kept per connection or
// pooled; 5 since a span is its own context, the codec neither copies a
// message to encode it nor boxes it twice to decode it, and frames are
// pooled; 4 since the server's deadline context is one object, not a
// context and its cancel function. What is left: the server's span, its
// deadline context, and the decoded message boxed once on each side.
func TestRemoteCallAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const budget = 5 + raceSlack
	client, obj := loopbackPair(t, telemetry.NewRegistry, func(server *Runtime) Object {
		return &codecEchoObj{l: server.Mint("Echo")}
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var arg any = loid.LOID{Domain: "zone-1", Class: "Host", Instance: 31} // boxed once, not per call
	call := func() {
		if res, err := client.Call(ctx, obj.LOID(), "echo", arg); err != nil || res != arg {
			t.Fatalf("echo: %v, %v", res, err)
		}
	}
	for i := 0; i < 100; i++ { // dial, intern the method, park a worker
		call()
	}
	if got := testing.AllocsPerRun(2000, call); got > budget {
		t.Errorf("%.1f allocations per remote call, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocations per remote call (budget %d)", got, budget)
	}
}
