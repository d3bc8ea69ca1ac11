package main

import (
	"context"
	"fmt"
	"time"

	"legion/internal/orb"
	"legion/internal/vclock"
)

// Layer probes: timed calls into one layer's public functions, for the
// costs a trace cannot split (one engine event, one local dispatch, one
// encode). They depend on the code alone, not on the workload, so every
// traced run measures them.

// probeIters scales a probe's full-scale iteration count with the time
// budget, so the smoke test's probes are a few hundred calls.
func (c config) probeIters(full int) int {
	return max(int(float64(full)*c.seconds/15), 20)
}

// nsPerIter times n calls of fn.
func nsPerIter(n int, fn func() error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

func probes(cfg config, res *layerResult) error {
	res.set("vclock.ns_per_event", probeVclock(cfg))

	f, err := newEcho(cfg)
	if err != nil {
		return err
	}
	defer f.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// One call on the serving runtime itself: lookup and dispatch, no
	// codec and no socket.
	local, err := nsPerIter(cfg.probeIters(200_000), func() error {
		_, err := f.server.Call(ctx, f.target, "echo", f.small)
		return err
	})
	if err != nil {
		return fmt.Errorf("local dispatch probe: %w", err)
	}
	res.set("orb.local_dispatch_ns", local)

	// One call at a time over the loopback connection; the allocations
	// are both runtimes', since they share the process.
	remote := func() error { _, err := f.call(ctx, f.small, false); return err }
	if _, err := nsPerIter(cfg.probeIters(1000), remote); err != nil { // dial and intern first
		return fmt.Errorf("tcp probe: %w", err)
	}
	n := cfg.probeIters(10_000)
	var rtt float64
	u := measured(func() { rtt, err = nsPerIter(n, remote) })
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	res.set("orb.tcp_rtt_us", rtt/1e3)
	res.set("orb.allocs_per_call", float64(u.mallocs)/float64(n))

	for _, m := range []struct {
		name  string
		v     any
		iters int
	}{
		{"small", f.small, 1_000_000},
		{"query_reply_256", f.large, 2_000},
	} {
		var buf []byte
		enc, err := nsPerIter(cfg.probeIters(m.iters), func() error {
			var err error
			buf, err = orb.AppendPayload(buf[:0], m.v)
			return err
		})
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
		dec, err := nsPerIter(cfg.probeIters(m.iters), func() error {
			_, err := orb.DecodePayloadBytes(buf)
			return err
		})
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		res.set("proto.encode_ns."+m.name, enc)
		res.set("proto.decode_ns."+m.name, dec)
		if m.name == "query_reply_256" {
			res.set("proto.bytes.query_reply_256", float64(len(buf)))
		}
	}
	return nil
}

// probeVclock measures the virtual clock's cost per fired event with
// nothing else running: registered goroutines that only Sleep.
func probeVclock(cfg config) float64 {
	const sleepers = 64
	each := cfg.probeIters(4000)
	vc := vclock.NewVirtual()
	ctx := context.Background()
	t0 := time.Now()
	vc.Run(func() {
		g := vc.NewGroup()
		g.Add(sleepers)
		for i := 0; i < sleepers; i++ {
			vc.Go(func() {
				defer g.Done()
				for k := 0; k < each; k++ {
					_ = vc.Sleep(ctx, time.Millisecond) // ctx is never cancelled
				}
			})
		}
		_ = g.Wait(ctx)
	})
	return float64(time.Since(t0)) / float64(sleepers*each)
}
