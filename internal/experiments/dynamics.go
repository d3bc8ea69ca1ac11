package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"legion/internal/core"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/sim"
)

// E2ReservationContention sweeps offered load against a fixed pool of
// hosts for each of the four Table 2 reservation classes, reporting the
// grant rate. Space sharing saturates at one reservation per host;
// timesharing multiplexes up to the admission bound.
func E2ReservationContention(offered []int) *Table {
	if len(offered) == 0 {
		offered = []int{4, 8, 16, 32, 64}
	}
	const nHosts = 8
	const maxShared = 4
	t := &Table{
		ID:    "E2",
		Title: fmt.Sprintf("Reservation contention: grant rate on %d hosts (timeshare bound %d)", nHosts, maxShared),
		Header: append([]string{"type"}, func() []string {
			h := make([]string, len(offered))
			for i, o := range offered {
				h[i] = fmt.Sprintf("offered=%d", o)
			}
			return h
		}()...),
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	for _, ty := range []reservation.Type{
		reservation.ReusableSpaceSharing,
		reservation.ReusableTimesharing,
	} {
		row := []any{ty.String()}
		for _, o := range offered {
			// One CPU per host and the default MaxShared of 4×CPUs: each
			// host admits four, the experiment's bound.
			ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 2}, Hosts: sim.UniformSpecs(nHosts, 1)}).MS
			hosts := ms.Hosts()
			vaultL := ms.Vaults()[0].LOID()
			granted := 0
			for i := 0; i < o; i++ {
				h := hosts[rng.Intn(len(hosts))]
				_, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
					Vault: vaultL, Type: ty, Duration: time.Hour,
				})
				if err == nil {
					granted++
				}
			}
			row = append(row, pct(granted, o))
			ms.Close()
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"space sharing allocates the entire resource: at most one grant per host",
		fmt.Sprintf("timesharing multiplexes up to the admission bound (%d per host here)", maxShared))
	return t
}

// E3MigrationPipeline measures the §2.1/§3.5 migration path end to end:
// trigger fire -> deactivate (OPR to vault) -> state move -> reactivate,
// as a function of object state size. It also verifies state continuity
// (the object's counters survive).
func E3MigrationPipeline(stateSizes []int) *Table {
	if len(stateSizes) == 0 {
		stateSizes = []int{1 << 10, 64 << 10, 1 << 20}
	}
	t := &Table{
		ID:    "E3",
		Title: "Migration pipeline: shutdown -> OPR move -> reactivate",
		Header: []string{"state size", "migrate latency", "state intact",
			"same LOID answers", "src empty"},
	}
	ctx := context.Background()
	for _, size := range stateSizes {
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 3}, Hosts: sim.UniformSpecs(2, 8)}).MS
		class := ms.DefineClass("Worker", nil)
		h1, h2 := ms.Hosts()[0], ms.Hosts()[1]
		insts, p, err := class.CreateInstance(ctx, 1, nil, nil)
		if err != nil {
			t.Notes = append(t.Notes, "setup: "+err.Error())
			ms.Close()
			continue
		}
		inst := insts[0]
		if p.Host != h1.LOID() {
			h1, h2 = h2, h1 // normalize: h1 is where the object runs
		}
		// Fill the object's state to the target size.
		payload := strings.Repeat("x", size)
		if _, err := ms.Runtime().Call(ctx, inst, "set", []string{"blob", payload}); err != nil {
			t.Notes = append(t.Notes, "set: "+err.Error())
			ms.Close()
			continue
		}
		destVault := h2.CompatibleVaults()[0]

		t0 := time.Now()
		err = ms.Migrate(ctx, class, inst, h2.LOID(), destVault)
		lat := time.Since(t0)
		if err != nil {
			t.AddRow(sizeStr(size), "-", "-", "-", "migrate failed: "+err.Error())
			ms.Close()
			continue
		}
		got, gerr := ms.Runtime().Call(ctx, inst, "get", "blob")
		intact := gerr == nil && got == payload
		answers := false
		if r, err := ms.Runtime().Call(ctx, inst, "ping", nil); err == nil && r == "pong" {
			answers = true
		}
		t.AddRow(sizeStr(size), lat, intact, answers, h1.RunningCount() == 0)
		ms.Close()
	}
	t.Notes = append(t.Notes,
		`"any active object can be migrated by shutting it down, moving the passive state`+
			` to a new Vault if necessary, and activating the object on another host"`)
	return t
}

// E3TriggerLatency measures the monitoring half: load spike ->
// reassessment -> RGE trigger -> Monitor outcall, repeated.
func E3TriggerLatency(rounds int) *Table {
	if rounds < 1 {
		rounds = 50
	}
	ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 3}, Hosts: sim.UniformSpecs(1, 8)}).MS
	defer ms.Close()
	ctx := context.Background()
	h := ms.Hosts()[0]
	if err := ms.WatchLoad(ctx, 0.8); err != nil {
		return &Table{ID: "E3b", Title: "trigger latency", Notes: []string{err.Error()}}
	}
	fired := make(chan time.Time, 1)
	ms.Monitor.OnEvent(func(proto.NotifyArgs) {
		select {
		case fired <- time.Now():
		default:
		}
	})
	var samples []time.Duration
	for i := 0; i < rounds; i++ {
		h.SetExternalLoad(0.1)
		h.Reassess(ctx) // re-arm
		h.SetExternalLoad(0.95)
		t0 := time.Now()
		h.Reassess(ctx)
		select {
		case ts := <-fired:
			samples = append(samples, ts.Sub(t0))
		case <-time.After(time.Second):
		}
	}
	t := &Table{
		ID:     "E3b",
		Title:  "Trigger-to-outcall latency (§3.5 RGE path)",
		Header: []string{"rounds", "delivered", "mean latency"},
	}
	t.AddRow(rounds, len(samples), meanDuration(samples))
	return t
}

func sizeStr(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
