package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"legion/internal/core"
	"legion/internal/sched"
	"legion/internal/telemetry"
	"legion/internal/vclock"
)

// TestUniformArrivalsAreAbsolute: on a virtual clock, arrival i fires at
// exactly start + i/Rate although every placement outlasts the interval
// several times over. The loop is open: no arrival waits for an earlier
// one to finish, and none drifts.
func TestUniformArrivalsAreAbsolute(t *testing.T) {
	vc := vclock.NewVirtual()
	ms := core.New("drive", core.Options{Seed: 1, Metrics: telemetry.NewRegistry(), Clock: vc, Parallelism: 1})
	defer ms.Close()
	class := ms.DefineClass("Worker", nil)
	rng := rand.New(rand.NewSource(1))
	Build(ms, rng, UniformSpecs(8, 4))
	ms.Runtime().SetLatency(2*time.Millisecond, 0)

	const (
		rate     = 1000
		requests = 30
		interval = time.Second / rate
	)
	var start time.Time
	arrived := make([]time.Time, requests)
	var res *DriverResult
	vc.Run(func() {
		start = vc.Now()
		res = Drive(context.Background(), ms, class, DriverConfig{
			Arrivals: Uniform,
			Rate:     rate,
			Requests: requests,
			Seed:     1,
			// Spec runs on the request's goroutine as it starts.
			Spec: func(i int) sched.ReservationSpec {
				arrived[i] = vc.Now()
				return sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}
			},
		})
	})

	if res.Offered != requests || res.Succeeded != requests {
		t.Fatalf("offered %d, succeeded %d; want %d of each", res.Offered, res.Succeeded, requests)
	}
	for i, at := range arrived {
		if want := start.Add(time.Duration(i) * interval); !at.Equal(want) {
			t.Errorf("arrival %d at +%v, want +%v", i, at.Sub(start), want.Sub(start))
		}
	}
	if fastest := res.Percentile(1.0 / requests); fastest <= interval {
		t.Fatalf("fastest placement took %v, not longer than the %v interval: the loop was never tested open", fastest, interval)
	}
}
