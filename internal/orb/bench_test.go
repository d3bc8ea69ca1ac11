package orb

import (
	"context"
	"errors"
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

// BenchmarkLoopbackCalls measures end-to-end call throughput over a
// real TCP loopback connection — preamble, frame codec, write
// coalescing, server limiter, response demultiplexing. The single
// sub-benchmark keeps the name "binary" so numbers line up with runs
// from when a gob codec sat beside it. b.RunParallel drives many
// concurrent callers through one multiplexed connection, which is
// exactly the coalescer's target workload: concurrent frames gathered
// into batched writes.
func BenchmarkLoopbackCalls(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		server := NewRuntime("srv")
		server.SetMetrics(telemetry.NewDisabled())
		obj := &codecEchoObj{l: server.Mint("Echo")}
		server.Register(obj)
		addr, err := server.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer server.Close()

		client := NewRuntime("cli")
		client.SetMetrics(telemetry.NewDisabled())
		defer client.Close()
		client.Bind(obj.LOID(), addr)

		ctx := context.Background()
		arg := benchMsg{Domain: "zone-1", Class: "Worker", ID: 42, Load: 0.5}
		if _, err := client.Call(ctx, obj.LOID(), "echo", arg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		// Dozens of concurrent callers per core: call throughput on a
		// multiplexed connection is a batching problem, not a CPU one —
		// the coalescer needs concurrent frames to gather, and a single
		// serial caller would measure round-trip latency instead.
		b.SetParallelism(64)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.Call(ctx, obj.LOID(), "echo", arg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		callsPerSec := float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(callsPerSec, "calls/s")
	})
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

// deepObj recurses through about 40 KB of stack before it replies: the
// depth a negotiation reaches below the frame handler (dispatch →
// Enactor → retry policy → ORB → Host → reservation table).
type deepObj struct{ l loid.LOID }

func (o *deepObj) LOID() loid.LOID { return o.l }

func (o *deepObj) Dispatch(_ context.Context, _ string, arg any) (any, error) {
	if descend(40) == 0 {
		return nil, errors.New("unreachable")
	}
	return arg, nil
}

// descend uses about 1 KB of stack per level.
//
//go:noinline
func descend(levels int) byte {
	var pad [1024]byte
	pad[levels] = 1
	if levels == 0 {
		return pad[0]
	}
	return descend(levels-1) + pad[levels] - 1
}

// BenchmarkLoopbackDeepHandler is BenchmarkLoopbackCalls with a handler
// that needs a deep stack: the guard for "a handler keeps its stack". A
// server that starts a goroutine per frame grows a fresh stack through
// several doublings on every call here; one that serves from parked
// workers grows each worker's once.
func BenchmarkLoopbackDeepHandler(b *testing.B) {
	client, obj := loopbackPair(b, telemetry.NewDisabled, func(server *Runtime) Object {
		return &deepObj{l: server.Mint("Deep")}
	})
	ctx := context.Background()
	arg := benchMsg{Domain: "zone-1", Class: "Worker", ID: 42, Load: 0.5}
	if _, err := client.Call(ctx, obj.LOID(), "echo", arg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.Call(ctx, obj.LOID(), "echo", arg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

// TestRemoteCallAllocBudget pins what one call over loopback TCP
// allocates, client and server together (both runtimes are in this
// process), with enabled registries and a caller deadline as a placement
// has: the smallest registered message echoed back. 18 when every frame
// got a goroutine, a reply channel, two built metric keys and a
// concatenated span name; 12 since those are kept per connection or
// pooled; 5 since a span is its own context, the codec neither copies a
// message to encode it nor boxes it twice to decode it, and frames are
// pooled. What is left: the server's span, its deadline context (2), and
// the decoded message boxed once on each side.
func TestRemoteCallAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const budget = 6 + raceSlack
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
