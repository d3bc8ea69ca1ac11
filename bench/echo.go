package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sim"
	"legion/internal/telemetry"
)

// Callers in flight per orb_echo phase. They are goroutines on nproc OS
// threads sharing one socket: pipelining depth, not threads.
const (
	pipelinedCallers = 32
	largeCallers     = 8
)

// echoFixture is the bare ORB on loopback TCP: a client runtime, a
// server runtime, one connection, and a ServiceObject whose one method
// returns its argument. No placement layer does any work here.
type echoFixture struct {
	cfg            config
	server, client *orb.Runtime
	target         loid.LOID
	// small is the smallest registered message; large a QueryReply of
	// the records a cfg.hosts-host fleet really deposits (256 at full
	// scale).
	small      proto.ObjectArgs
	large      proto.QueryReply
	largeBytes int // one encoded large payload
	// restoreProcs undoes singleP when the fixture closes; nil when the
	// fixture runs at the default GOMAXPROCS (the layer probes).
	restoreProcs func()
}

// singleP puts the process on one P until the returned function is
// called. orb_echo's client and server share the process and one call
// is ≈4 µs of CPU: on two Ps the callers and the connections' reader
// and writer goroutines are handed between two threads for every frame,
// and what then varies from trial to trial (146k-187k pipelined calls/s
// within one quiet run, against 222k-233k on one P) is the scheduler
// waking parked threads and the host waking idle vCPUs, not the ORB. On
// one P no thread sleeps between a write and the read it causes, so
// the figures are the ORB's own cost per call — and "calls/s on one
// core" is how the north-star number was measured.
func singleP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

func buildEcho(cfg config) (fixture, error) {
	restore := singleP()
	f, err := newEcho(cfg)
	if err != nil {
		restore()
		return nil, err
	}
	f.restoreProcs = restore
	// Warm-up: dial, negotiate the codec, intern the method and symbols.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, arg := range []any{f.small, f.large} {
		if _, bad, _ := f.callers(ctx, 4, 50*time.Millisecond, arg); bad > 0 {
			f.close()
			return nil, fmt.Errorf("warm-up: %d echo calls failed", bad)
		}
	}
	return f, nil
}

func newEcho(cfg config) (*echoFixture, error) {
	// The large message's records come from a real fleet's Collection.
	ms := core.New("bench", core.Options{Seed: cfg.seed, Metrics: telemetry.NewRegistry()})
	rng := rand.New(rand.NewSource(cfg.seed))
	fleet := sim.Build(ms, rng, sim.RandomSpecs(rng, cfg.hosts, "z1", "z2", "z3", "z4"))
	records, err := ms.Collection.Query(fullMatchQuery)
	if err != nil {
		return nil, err
	}
	f := &echoFixture{
		cfg:   cfg,
		small: proto.ObjectArgs{Object: fleet.Hosts[rng.Intn(len(fleet.Hosts))].LOID()},
		large: proto.QueryReply{Records: records},
	}
	payload, err := orb.EncodePayloadBytes(f.large)
	if err != nil {
		return nil, err
	}
	f.largeBytes = len(payload)

	f.server = orb.NewRuntime("echo-server")
	f.server.SetMetrics(telemetry.NewRegistry())
	obj := orb.NewServiceObject(f.server.Mint("Echo"))
	obj.Handle("echo", func(_ context.Context, arg any) (any, error) { return arg, nil })
	f.server.Register(obj)
	f.target = obj.LOID()
	addr, err := f.server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.client = orb.NewRuntime("echo-client")
	f.client.SetMetrics(telemetry.NewRegistry())
	f.client.BindDomain(f.server.Domain(), addr)
	return f, nil
}

// call makes one echo call and checks the reply against the argument:
// fully when deep is set, by record count otherwise.
func (f *echoFixture) call(ctx context.Context, arg any, deep bool) (time.Duration, error) {
	t0 := time.Now()
	res, err := f.client.Call(ctx, f.target, "echo", arg)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	switch want := arg.(type) {
	case proto.ObjectArgs:
		if got, ok := res.(proto.ObjectArgs); !ok || got != want {
			return lat, fmt.Errorf("echo returned %v for %v", res, want)
		}
	case proto.QueryReply:
		got, ok := res.(proto.QueryReply)
		if !ok || len(got.Records) != len(want.Records) || (deep && !sameRecords(got.Records, want.Records)) {
			return lat, fmt.Errorf("echo returned a different QueryReply (%d records sent)", len(want.Records))
		}
	}
	return lat, nil
}

func sameRecords(a, b []proto.CollectionRecord) bool {
	for i := range a {
		if a[i].Member != b[i].Member || !a[i].UpdatedAt.Equal(b[i].UpdatedAt) || len(a[i].Attrs) != len(b[i].Attrs) {
			return false
		}
		for j, p := range a[i].Attrs {
			if q := b[i].Attrs[j]; p.Name != q.Name || p.Value.Kind() != q.Value.Kind() || !p.Value.Equal(q.Value) {
				return false
			}
		}
	}
	return true
}

// callers keeps n callers in flight for d, each a closed loop, and
// returns the successes, the failures and every success's latency. Each
// caller checks its first reply in full.
func (f *echoFixture) callers(ctx context.Context, n int, d time.Duration, arg any) (ops, failed int64, lat []time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			var bad int64
			for i := 0; time.Now().Before(deadline) && (f.cfg.maxOps == 0 || i < f.cfg.maxOps); i++ {
				l, err := f.call(ctx, arg, i == 0)
				if err != nil {
					bad++
					continue
				}
				mine = append(mine, l)
			}
			mu.Lock()
			lat, failed = append(lat, mine...), failed+bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return int64(len(lat)), failed, lat
}

// Slice lengths of the pipelined and the large phase: ≈9,000 and ≈120
// calls.
const (
	pipelinedSlice = 40 * time.Millisecond
	largeSlice     = 150 * time.Millisecond
)

// trial runs the three phases: rtt (1 in flight, small message; an
// eighth of the trial, a diagnostic), pipelined (32 in flight, small;
// half) and large (8 in flight, the QueryReply; three eighths). The
// last two run in slices (see sliced) and the trial reports its fastest
// pipelined slice (calls per second, the call's p50, CPU and
// allocations per call) and its fastest large slice (wall time per
// call, which is payload MB/s inverted). On one P a slice has no ramp
// or drain to pay for: the P is busy from the first call to the last.
func (f *echoFixture) trial(int) (trial, error) {
	d := f.cfg.trialDur()
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()

	var t trial
	_, bad, rtt := f.callers(ctx, 1, d/8, f.small)
	t.failed += bad
	t.unbracketed += int64(len(rtt))

	rounds, each := sliced(d/2, pipelinedSlice)
	var bestRate float64
	for r := 0; r < rounds; r++ {
		var ops int64
		var piped []time.Duration
		u := measured(func() { ops, bad, piped = f.callers(ctx, pipelinedCallers, each, f.small) })
		t.failed += bad
		t.unbracketed += ops
		if rate := ratio(float64(ops), u.wall.Seconds()); rate > bestRate {
			bestRate = rate
			t.unbracketed += t.ops - ops
			t.ops, t.usage, t.samples, t.p50 = ops, u, len(piped), percentileUS(piped, 0.50)
		}
	}

	largeRounds, each := sliced(d*3/8, largeSlice)
	var large []time.Duration
	var largeOps int64
	for r := 0; r < largeRounds; r++ {
		t0 := time.Now()
		n, bad, lat := f.callers(ctx, largeCallers, each, f.large)
		perCall := ratio(float64(time.Since(t0))/float64(time.Microsecond), float64(n))
		t.failed += bad
		if r == 0 || (n > 0 && perCall < t.aux) {
			t.aux = perCall
		}
		largeOps += n
		large = append(large, lat...)
	}
	t.unbracketed += largeOps
	t.note = fmt.Sprintf("GOMAXPROCS=%d slices=%d/%d rtt_calls=%d rtt_p50=%.3fus rtt_p99=%.0fus large_calls=%d large_p50=%.0fus large_payload_bytes=%d large_mb_per_s=%.1f",
		runtime.GOMAXPROCS(0), rounds, largeRounds, len(rtt), percentileUS(rtt, 0.50), percentileUS(rtt, 0.99),
		largeOps, percentileUS(large, 0.50), f.largeBytes, ratio(2*float64(f.largeBytes), t.aux))
	return t, nil
}

// check needs nothing beyond the per-reply comparison in call.
func (f *echoFixture) check() []string { return nil }

func (f *echoFixture) close() {
	// Closing a runtime only fails on a listener that is already closed.
	_ = f.client.Close()
	_ = f.server.Close()
	if f.restoreProcs != nil {
		f.restoreProcs()
	}
}
