package orb

import (
	"context"
	"testing"

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

func (m *benchMsg) AppendWire(b []byte) []byte {
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

func init() { RegisterWireMessage[benchMsg, *benchMsg](testWireBenchMsg) }

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
