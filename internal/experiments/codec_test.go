package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestE13CodecDifferential is the codec analog of the E11 clock
// differential: the marshalling boundary must be behaviourally
// invisible. A reduced campaign runs with and without the boundary;
// both must produce identical placement outcomes and — because encoding
// is synchronous CPU work the virtual clock cannot observe —
// byte-identical discrete-event traces.
func TestE13CodecDifferential(t *testing.T) {
	const hosts, requests = 400, 2_000

	type fingerprint struct {
		ok, shed, failed, leaks int
		events                  int
		traceHash               string
	}
	run := func(boundary bool) fingerprint {
		r := runCodecCampaign(boundary, hosts, requests, true)
		sum := sha256.Sum256([]byte(strings.Join(r.trace, "\n")))
		return fingerprint{
			ok: r.res.Succeeded, shed: r.res.Shed, failed: r.res.Failed,
			leaks: r.leaks, events: len(r.trace),
			traceHash: hex.EncodeToString(sum[:8]),
		}
	}

	off := run(false)
	if off.ok == 0 {
		t.Fatalf("baseline campaign placed nothing: %+v", off)
	}
	if off.leaks != 0 {
		t.Fatalf("baseline campaign leaked %d reservations/instances", off.leaks)
	}
	if got := run(true); got != off {
		t.Errorf("codec boundary diverges from baseline:\nbase:  %+v\ncodec: %+v", off, got)
	}
}
