package proto

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"legion/internal/orb"
)

// TestTypedCodecDifferential holds the typed codec — what Invoke and a
// method registered through orb.Typed encode and decode through on a
// socket, by value — to the boxed one, AppendPayload and DecodePayload.
// It covers every registered type (fixtureMessages) and every message
// FuzzCodecRoundTrip's committed seed corpus generates. Each value
// crosses a fresh loopback connection three ways: typed at both ends;
// boxed by the caller (Call) to a typed method; typed by the caller to a
// boxed method (Handle). Each way, the value the server decodes and the
// reply the caller decodes must equal the boxed codec's own round trip,
// so each decoder reads each encoder's bytes alike. A relay records the
// bytes each connection carries, and the typed encoders must write the
// boxed one's: the typed caller's request stream is the boxed caller's,
// byte for byte, and the typed method's reply stream is the boxed
// method's, each ending in AppendPayload's bytes. A fresh connection
// opens with the same preamble, method definition and request ID, and
// no call carries a span or a deadline, so the payload is all that can
// differ.
func TestTypedCodecDifferential(t *testing.T) {
	d := newTypedDiffPair(t)
	msgs := fixtureMessages()
	for _, data := range seedCorpus(t, "FuzzCodecRoundTrip") {
		msgs = append(msgs, (&gen{data: data}).message())
	}
	for _, m := range msgs {
		switch x := m.(type) {
		case MakeReservationArgs:
			typedDiff(t, d, x)
		case MakeReservationReply:
			typedDiff(t, d, x)
		case TokenArgs:
			typedDiff(t, d, x)
		case StartObjectArgs:
			typedDiff(t, d, x)
		case StartObjectReply:
			typedDiff(t, d, x)
		case ObjectArgs:
			typedDiff(t, d, x)
		case DeactivateReply:
			typedDiff(t, d, x)
		case CompatibleVaultsReply:
			typedDiff(t, d, x)
		case VaultOKArgs:
			typedDiff(t, d, x)
		case BoolReply:
			typedDiff(t, d, x)
		case AttributesReply:
			typedDiff(t, d, x)
		case DefineTriggerArgs:
			typedDiff(t, d, x)
		case RegisterOutcallArgs:
			typedDiff(t, d, x)
		case NotifyArgs:
			typedDiff(t, d, x)
		case StoreOPRArgs:
			typedDiff(t, d, x)
		case RetrieveOPRArgs:
			typedDiff(t, d, x)
		case RetrieveOPRReply:
			typedDiff(t, d, x)
		case DeleteOPRArgs:
			typedDiff(t, d, x)
		case JoinArgs:
			typedDiff(t, d, x)
		case LeaveArgs:
			typedDiff(t, d, x)
		case UpdateArgs:
			typedDiff(t, d, x)
		case QueryArgs:
			typedDiff(t, d, x)
		case QueryReply:
			typedDiff(t, d, x)
		case CollectionRecord:
			typedDiff(t, d, x)
		case BatchEntry:
			typedDiff(t, d, x)
		case BatchUpdateArgs:
			typedDiff(t, d, x)
		case BatchUpdateReply:
			typedDiff(t, d, x)
		case CreateInstanceArgs:
			typedDiff(t, d, x)
		case CreateInstanceReply:
			typedDiff(t, d, x)
		case ImplementationsReply:
			typedDiff(t, d, x)
		case InstancesReply:
			typedDiff(t, d, x)
		case Placement:
			typedDiff(t, d, x)
		case Implementation:
			typedDiff(t, d, x)
		case MakeReservationsArgs:
			typedDiff(t, d, x)
		case FeedbackReply:
			typedDiff(t, d, x)
		case EnactScheduleArgs:
			typedDiff(t, d, x)
		case EnactReply:
			typedDiff(t, d, x)
		case CancelReservationsArgs:
			typedDiff(t, d, x)
		case Ack:
			typedDiff(t, d, x)
		case ServicesReply:
			typedDiff(t, d, x)
		case AccountArgs:
			typedDiff(t, d, x)
		case AccountDepositArgs:
			typedDiff(t, d, x)
		case AccountReply:
			typedDiff(t, d, x)
		default:
			t.Errorf("%T: no typed case", m)
		}
	}
}

// typedDiffPair is a server object whose "boxed" method echoes whatever
// it is given, and the address it serves on.
type typedDiffPair struct {
	addr string
	obj  *orb.ServiceObject
	got  chan any // what the server's last call decoded
}

func newTypedDiffPair(t *testing.T) *typedDiffPair {
	server := orb.NewRuntime("srv")
	t.Cleanup(func() { server.Close() })
	d := &typedDiffPair{obj: orb.NewServiceObject(server.Mint("Diff")), got: make(chan any, 1)}
	d.obj.Handle("boxed", func(_ context.Context, arg any) (any, error) {
		d.got <- arg
		return arg, nil
	})
	server.Register(d.obj)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = addr
	return d
}

// tapped makes call from a fresh client runtime, over one connection
// through a relay to the server, and returns call's result and the bytes
// the connection carried each way: up to the server, down from it.
func (d *typedDiffPair) tapped(t *testing.T, call func(c *orb.Runtime) (any, error)) (res any, err error, up, down []byte) {
	t.Helper()
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	defer ln.Close()
	var upBuf, downBuf bytes.Buffer
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		from, err := ln.Accept()
		if err != nil {
			return
		}
		defer from.Close()
		to, err := net.Dial("tcp", d.addr)
		if err != nil {
			return
		}
		down := make(chan struct{})
		go func() {
			// Recorded before it is passed on: once the caller has its
			// reply, the reply is in downBuf.
			io.Copy(io.MultiWriter(&downBuf, from), to)
			close(down)
		}()
		io.Copy(io.MultiWriter(&upBuf, to), from)
		to.Close()
		<-down
	}()
	client := orb.NewRuntime("cli")
	client.Bind(d.obj.LOID(), ln.Addr().String())
	res, err = call(client)
	client.Close()
	select {
	case <-relayed:
	case <-time.After(time.Minute):
		t.Fatal("the relay did not finish")
	}
	return res, err, upBuf.Bytes(), downBuf.Bytes()
}

// typedDiff sends v the three ways and checks what each end decoded, and
// what the typed encoders wrote.
func typedDiff[T any](t *testing.T, d *typedDiffPair, v T) {
	t.Helper()
	b, err := orb.EncodePayloadBytes(v)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	want, err := orb.DecodePayloadBytes(b)
	if err != nil {
		t.Fatalf("%T: decode: %v", v, err)
	}
	typed := fmt.Sprintf("typed/%T", v)
	d.obj.HandleTyped(typed, orb.Typed(func(_ context.Context, a T) (T, error) {
		d.got <- a
		return a, nil
	}))
	// No deadline: a request frame carries its caller's, and the streams
	// compared must differ in the payload alone.
	ctx := context.Background()
	check := func(way string, res any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%T, %s: %v", v, way, err)
		}
		if got := <-d.got; !wireEqual(got, want) {
			t.Errorf("%T, %s: the server decoded\n%#v\nwant %#v", v, way, got, want)
		}
		if !wireEqual(res, want) {
			t.Errorf("%T, %s: the caller decoded\n%#v\nwant %#v", v, way, res, want)
		}
	}
	res, err, typedUp, _ := d.tapped(t, func(c *orb.Runtime) (any, error) {
		return orb.Invoke[T](ctx, c, d.obj.LOID(), typed, v)
	})
	check("typed at both ends", res, err)
	res, err, boxedUp, typedDown := d.tapped(t, func(c *orb.Runtime) (any, error) {
		return c.Call(ctx, d.obj.LOID(), typed, v)
	})
	check("boxed caller, typed method", res, err)
	res, err, _, boxedDown := d.tapped(t, func(c *orb.Runtime) (any, error) {
		return orb.Invoke[T](ctx, c, d.obj.LOID(), "boxed", v)
	})
	check("typed caller, boxed method", res, err)
	if !bytes.Equal(typedUp, boxedUp) || !bytes.HasSuffix(boxedUp, b) {
		t.Errorf("%T: the typed caller wrote\n%x\nthe boxed caller\n%x\nending in AppendPayload's\n%x", v, typedUp, boxedUp, b)
	}
	if !bytes.Equal(typedDown, boxedDown) || !bytes.HasSuffix(boxedDown, b) {
		t.Errorf("%T: the typed method replied\n%x\nthe boxed method\n%x\nending in AppendPayload's\n%x", v, typedDown, boxedDown, b)
	}
}

// seedCorpus reads the inputs of a fuzz target's committed seed corpus
// (testdata/fuzz/<target>), each file one []byte.
func seedCorpus(t *testing.T, target string) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s seed corpus: %d files, %v", target, len(files), err)
	}
	var out [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		lit, ok := strings.CutPrefix(value, "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("%s: not one []byte input: %q", f, b)
		}
		out = append(out, []byte(s))
	}
	return out
}
