package experiments

import (
	"context"
	"fmt"
	"time"

	"legion/internal/core"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/sim"
)

// Table1HostInterface exercises every operation of the Host resource
// management interface (paper Table 1) and reports per-operation latency
// over iters invocations each. It reproduces Table 1 as a living
// artifact: the rows are the interface.
func Table1HostInterface(iters int) *Table {
	if iters < 1 {
		iters = 100
	}
	ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 1},
		Hosts: withMaxShared(sim.UniformSpecs(1, 8), iters+8)}).MS
	defer ms.Close()
	ctx := context.Background()
	h := ms.Hosts()[0]
	v := ms.Vaults()[0]
	class := ms.DefineClass("Worker", nil)
	rt := ms.Runtime()

	t := &Table{
		ID:     "T1",
		Title:  "Host Object resource management interface (Table 1), per-op latency",
		Header: []string{"group", "operation", "mean latency", "ops"},
	}

	measure := func(group, op string, f func(i int) error) {
		var samples []time.Duration
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := f(i); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s failed: %v", op, err))
				return
			}
			samples = append(samples, time.Since(t0))
		}
		t.AddRow(group, op, meanDuration(samples), iters)
	}

	// Reservation management.
	tokens := make([]reservation.Token, 0, iters)
	measure("reservation", "make_reservation()", func(i int) error {
		tok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
			Vault: v.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
		})
		if err != nil {
			return err
		}
		tokens = append(tokens, tok)
		return nil
	})
	measure("reservation", "check_reservation()", func(i int) error {
		return h.CheckReservation(&tokens[i%len(tokens)])
	})
	measure("reservation", "cancel_reservation()", func(i int) error {
		return h.CancelReservation(&tokens[i])
	})

	// Process management.
	workTok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
		Vault: v.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
	})
	if err != nil {
		t.Notes = append(t.Notes, "setup reservation failed: "+err.Error())
		return t
	}
	insts := make([]loid.LOID, iters)
	measure("process", "startObject()", func(i int) error {
		insts[i] = rt.Mint("Worker")
		_, err := h.StartObject(ctx, proto.StartObjectArgs{
			Token: workTok, Class: class.LOID(), Instances: insts[i : i+1],
		})
		return err
	})
	measure("process", "deactivateObject()", func(i int) error {
		_, _, err := h.DeactivateObject(ctx, insts[i])
		return err
	})
	// Reactivate half to have something to kill.
	measure("process", "startObject(reactivate)", func(i int) error {
		o, err := v.Retrieve(insts[i])
		if err != nil {
			return err
		}
		_, err = h.StartObject(ctx, proto.StartObjectArgs{
			Token: workTok, Class: class.LOID(), Instances: insts[i : i+1], State: o,
		})
		return err
	})
	measure("process", "killObject()", func(i int) error {
		return h.KillObject(ctx, insts[i])
	})

	// Information reporting.
	measure("information", "get_compatible_vaults()", func(i int) error {
		if len(h.CompatibleVaults()) == 0 {
			return fmt.Errorf("no vaults")
		}
		return nil
	})
	measure("information", "vault_OK()", func(i int) error {
		res, err := orb.Invoke[proto.BoolReply](ctx, rt, h.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: v.LOID()})
		if err != nil {
			return err
		}
		if !res.OK {
			return fmt.Errorf("vault not OK")
		}
		return nil
	})
	measure("information", "get_attributes()", func(i int) error {
		if len(h.Attributes()) == 0 {
			return fmt.Errorf("no attributes")
		}
		return nil
	})
	return t
}

// Table2ReservationTypes demonstrates the four reservation classes of
// paper Table 2 (share x reuse): whether a second concurrent reservation
// is admitted, and whether the token survives a second StartObject.
func Table2ReservationTypes() *Table {
	t := &Table{
		ID:    "T2",
		Title: "Legion reservation types (Table 2): admission and reuse semantics",
		Header: []string{"type", "share", "reuse",
			"2nd overlapping res.", "2nd startObject", "issue+verify"},
	}
	ctx := context.Background()
	for _, ty := range []reservation.Type{
		reservation.OneShotSpaceSharing,
		reservation.ReusableSpaceSharing,
		reservation.OneShotTimesharing,
		reservation.ReusableTimesharing,
	} {
		ms := sim.New(sim.Spec{Domain: "uva", Options: core.Options{Seed: 2}, Hosts: sim.UniformSpecs(1, 8)}).MS
		h := ms.Hosts()[0]
		v := ms.Vaults()[0]
		class := ms.DefineClass("Worker", nil)
		rt := ms.Runtime()

		tok, err := h.MakeReservation(ctx, proto.MakeReservationArgs{
			Vault: v.LOID(), Type: ty, Duration: time.Hour,
		})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%v: %v", ty, err))
			ms.Close()
			continue
		}
		// Can a second overlapping reservation be admitted?
		_, err2 := h.MakeReservation(ctx, proto.MakeReservationArgs{
			Vault: v.LOID(), Type: ty, Duration: time.Hour,
		})
		secondRes := "admitted"
		if err2 != nil {
			secondRes = "conflict"
		}
		// Does the token survive two StartObject calls?
		i1, i2 := rt.Mint("Worker"), rt.Mint("Worker")
		_, e1 := h.StartObject(ctx, proto.StartObjectArgs{Token: tok, Class: class.LOID(), Instances: []loid.LOID{i1}})
		_, e2 := h.StartObject(ctx, proto.StartObjectArgs{Token: tok, Class: class.LOID(), Instances: []loid.LOID{i2}})
		secondStart := "accepted"
		if e1 != nil {
			secondStart = "first failed: " + e1.Error()
		} else if e2 != nil {
			secondStart = "rejected (consumed)"
		}

		// Token issue+verify microcost.
		signer := reservation.NewSigner()
		probe := reservation.Token{ID: 1, Host: h.LOID(), Vault: v.LOID(), Type: ty, Duration: time.Hour}
		t0 := time.Now()
		const n = 2000
		for i := 0; i < n; i++ {
			signer.Sign(&probe)
			if !signer.Valid(&probe) {
				t.Notes = append(t.Notes, "token failed self-verification")
				break
			}
		}
		perOp := time.Since(t0) / (2 * n)

		t.AddRow(ty.String(), ty.Share, ty.Reuse, secondRes, secondStart, perOp)
		ms.Close()
	}
	t.Notes = append(t.Notes,
		`space sharing (share=0) allocates the entire resource: overlapping reservations conflict`,
		`one-shot (reuse=0) tokens are consumed by the first StartObject`)
	return t
}
