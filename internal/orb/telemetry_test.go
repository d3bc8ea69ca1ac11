package orb

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"legion/internal/telemetry"
	"legion/internal/wire"
)

// TestSpanPropagationOverTCP drives a real TCP round-trip and checks
// that the client-side span's identity crosses the wire: the server's
// rpc/<method> span must join the client's trace with the client span
// as its parent.
func TestSpanPropagationOverTCP(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	serverReg := telemetry.NewRegistry()
	server.SetMetrics(serverReg)
	obj := newEcho(server)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := NewRuntime("sdsc")
	defer client.Close()
	clientReg := telemetry.NewRegistry()
	client.SetMetrics(clientReg)
	client.Bind(obj.LOID(), addr)

	ctx, span := clientReg.Spans().Start(context.Background(), client.Clock(), "test/placement", "sdsc")
	if _, err := client.Call(ctx, obj.LOID(), "double", echoArg{N: 3, S: "y"}); err != nil {
		t.Fatal(err)
	}
	span.Finish(nil)
	sc := span.Context()

	rpc := serverReg.Spans().ByName("rpc/double")
	if len(rpc) != 1 {
		t.Fatalf("server recorded %d rpc/double spans, want 1", len(rpc))
	}
	got := rpc[0]
	if got.TraceID != sc.TraceID {
		t.Errorf("server span trace %016x, want client trace %016x", got.TraceID, sc.TraceID)
	}
	if got.ParentID != sc.SpanID {
		t.Errorf("server span parent %016x, want client span %016x", got.ParentID, sc.SpanID)
	}
	if got.Runtime != "uva" {
		t.Errorf("server span runtime %q, want uva", got.Runtime)
	}
	if got.Duration <= 0 {
		t.Error("server span duration must be positive")
	}

	// Client/server call metrics landed in the right registries.
	if n := clientReg.Histogram("legion_orb_client_seconds", telemetry.LatencyBuckets, "method", "double").Count(); n != 1 {
		t.Errorf("client histogram count = %d, want 1", n)
	}
	if n := serverReg.Histogram("legion_orb_server_seconds", telemetry.LatencyBuckets, "method", "double").Count(); n != 1 {
		t.Errorf("server histogram count = %d, want 1", n)
	}
	if n := serverReg.CounterValue("legion_orb_server_errors_total", "method", "double"); n != 0 {
		t.Errorf("server error counter = %d, want 0", n)
	}
}

// TestCallWithoutSpanStillServes: requests carrying no span context must
// be served normally and open a fresh trace on the server.
func TestCallWithoutSpanStillServes(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	serverReg := telemetry.NewRegistry()
	server.SetMetrics(serverReg)
	obj := newEcho(server)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := NewRuntime("sdsc")
	defer client.Close()
	client.SetMetrics(telemetry.NewRegistry())
	client.Bind(obj.LOID(), addr)

	if _, err := client.Call(context.Background(), obj.LOID(), "echo", echoArg{N: 1}); err != nil {
		t.Fatal(err)
	}
	rpc := serverReg.Spans().ByName("rpc/echo")
	if len(rpc) != 1 {
		t.Fatalf("server recorded %d rpc/echo spans, want 1", len(rpc))
	}
	if rpc[0].TraceID == 0 || rpc[0].ParentID != 0 {
		t.Errorf("span without remote parent: trace=%d parent=%d, want fresh trace with no parent",
			rpc[0].TraceID, rpc[0].ParentID)
	}
}

// TestPeerCannotMintMetricSeries: the method name in a frame is the
// peer's to choose, and a registry keeps a series for the life of the
// process. Names nobody here exports — thousands of them, or one crafted
// to close the label and start a line of its own — are observed under
// method="unknown"; a method the process really serves keeps its series.
// A name sent with a payload that does not decode is not even observed.
func TestPeerCannotMintMetricSeries(t *testing.T) {
	server := NewRuntime("uva")
	defer server.Close()
	reg := telemetry.NewRegistry()
	server.SetMetrics(reg)
	obj := newEcho(server)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRuntime("sdsc")
	defer client.Close()
	client.SetMetrics(telemetry.NewDisabled())
	client.Bind(obj.LOID(), addr)
	unbound := server.Mint("Gone")
	client.Bind(unbound, addr)
	ctx := context.Background()

	// The server drops a connection that defines more than maxMethods
	// names; the client redials, so the flood outlives any one
	// connection's table.
	const bogus = 3000
	refused := 0
	for i := 0; i < bogus; i++ {
		target := obj.LOID()
		if i%2 == 1 {
			target = unbound
		}
		_, err := client.Call(ctx, target, fmt.Sprintf("bogus-%d", i), nil)
		if errors.Is(err, ErrNoMethod) || errors.Is(err, ErrNotBound) {
			refused++
		}
	}
	if refused < bogus-8 { // a call in flight when its connection is dropped fails with it
		t.Fatalf("only %d of %d bogus calls were refused by dispatch", refused, bogus)
	}
	const injected = "x\"} 1\nfake_metric{a=\"b"
	if _, err := client.Call(ctx, obj.LOID(), injected, nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("injected name: err=%v, want ErrNoMethod", err)
	}
	// An expired frame is counted before anything is dispatched.
	conn := rawConn(t, addr)
	br := bufio.NewReader(conn)
	req := request{ID: 1, Target: obj.LOID(), Method: "never-served", Deadline: time.Now().Add(-time.Second).UnixNano()}
	var mi methodIntern
	var scratch []byte
	if _, err := conn.Write(appendRequestFrame(nil, &scratch, &mi, &req, []byte{payloadNil})); err != nil {
		t.Fatal(err)
	}
	if resp, err := readResponse(br); err != nil || resp.ErrKind != errKindDeadline {
		t.Fatalf("expired frame: %+v, %v", resp, err)
	}
	// A payload that does not decode is answered before anything is
	// dispatched or observed, so its name earns no label either.
	req = request{ID: 2, Target: obj.LOID(), Method: "malformed-payload"}
	if _, err := conn.Write(appendRequestFrame(nil, &scratch, &mi, &req, wire.AppendUvarint(nil, 999))); err != nil {
		t.Fatal(err)
	}
	if resp, err := readResponse(br); err != nil || resp.ErrMsg != "orb: unknown wire type ID 999" {
		t.Fatalf("malformed payload: %+v, %v", resp, err)
	}

	// Real methods earn their own series, errors included.
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ctx, obj.LOID(), "echo", echoArg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Call(ctx, obj.LOID(), "fail", nil); err == nil {
		t.Fatal("fail succeeded")
	}

	var text bytes.Buffer
	reg.WriteText(&text)
	series := 0
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "legion_orb_server_seconds_count{") {
			series++
		}
		if strings.HasPrefix(line, "fake_metric") {
			t.Errorf("a peer's method name wrote its own /metrics line: %q", line)
		}
		if strings.Contains(line, "bogus-") || strings.Contains(line, "never-served") || strings.Contains(line, "malformed-payload") {
			t.Errorf("a name nobody serves labels a series: %q", line)
		}
	}
	if series != 3 {
		t.Errorf("%d legion_orb_server_seconds series, want 3 (echo, fail, unknown):\n%s", series, text.String())
	}
	hist := func(method string) int64 {
		return reg.Histogram("legion_orb_server_seconds", telemetry.LatencyBuckets, "method", method).Count()
	}
	if n := hist("echo"); n != 3 {
		t.Errorf("echo observed %d times, want 3", n)
	}
	if n := hist("fail"); n != 1 {
		t.Errorf("fail observed %d times, want 1", n)
	}
	if n := reg.CounterValue("legion_orb_server_errors_total", "method", "fail"); n != 1 {
		t.Errorf("fail's error counter = %d, want 1", n)
	}
	if n := hist(unknownMethod); n < int64(refused)+2 {
		t.Errorf("unknown observed %d times, want at least %d", n, refused+2)
	}
	if n := reg.CounterValue("legion_orb_deadline_expired_total", "method", unknownMethod); n != 1 {
		t.Errorf("expired frame of an unserved method counted %d times under unknown, want 1", n)
	}
}
