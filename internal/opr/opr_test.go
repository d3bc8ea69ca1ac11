package opr

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"legion/internal/loid"
)

var (
	obj     = loid.LOID{Domain: "uva", Class: "Worker", Instance: 3}
	savedAt = time.Unix(1e9, 42)
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []byte("iteration 42")
	o, err := New(obj, 7, savedAt, in)
	if err != nil {
		t.Fatal(err)
	}
	if o.Object != obj || o.Class != "Worker" || o.Version != 7 || !o.SavedAt.Equal(savedAt) {
		t.Errorf("metadata: %+v", o)
	}
	if o.Size() != len(in) {
		t.Errorf("Size = %d", o.Size())
	}
	out, err := o.State()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(in) {
		t.Errorf("round trip: %q", out)
	}
}

func TestEncodeNilLOID(t *testing.T) {
	if _, err := New(loid.Nil, 1, savedAt, nil); err == nil {
		t.Error("nil LOID accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	o, err := New(obj, 1, savedAt, []byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Verify(); err != nil {
		t.Fatalf("fresh OPR fails Verify: %v", err)
	}
	o.Payload[0] ^= 0xff
	if err := o.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify after corruption = %v, want ErrCorrupt", err)
	}
	if _, err := o.State(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("State after corruption = %v, want ErrCorrupt", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	o, _ := New(obj, 1, savedAt, []byte("state"))
	c := o.Clone()
	c.Payload[0] ^= 0xff
	if err := o.Verify(); err != nil {
		t.Error("mutating clone corrupted original")
	}
	if err := c.Verify(); err == nil {
		t.Error("clone should be corrupt")
	}
}

// Property: any byte-slice state survives the envelope, and any single
// byte flip in the payload is detected.
func TestRoundTripAndTamperProperty(t *testing.T) {
	f := func(data []byte, flip uint16) bool {
		o, err := New(obj, 1, savedAt, data)
		if err != nil {
			return false
		}
		out, err := o.State()
		if err != nil || string(out) != string(data) {
			return false
		}
		if len(o.Payload) == 0 {
			return true
		}
		o.Payload[int(flip)%len(o.Payload)] ^= 0x01
		return errors.Is(o.Verify(), ErrCorrupt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
