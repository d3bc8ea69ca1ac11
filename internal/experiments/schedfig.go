package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/vault"
)

// Fig5VariantSelection measures the schedule data structure of Figure 5:
// the per-variant bitmap lets the Enactor pick the next applicable
// variant by word-wise intersection instead of rescanning every
// replacement list. Both strategies run over schedules with growing
// variant counts; the table reports the variant they select, what each
// examines to find it (bitmap words, replacement entries — functions of
// the seeded schedule, not of the machine), and their timings.
func Fig5VariantSelection(mappings int, variantCounts []int) *Table {
	if mappings < 1 {
		mappings = 64
	}
	if len(variantCounts) == 0 {
		variantCounts = []int{8, 64, 512}
	}
	t := &Table{
		ID:    "F5",
		Title: "Schedule structure (Figure 5): variant selection, bitmap vs replacement-list scan",
		Header: []string{"mappings", "variants", "selected", "words/select", "entries/select",
			"bitmap select", "list scan", "speedup"},
	}
	rng := rand.New(rand.NewSource(5))
	mk := func(c, h, v uint64) sched.Mapping {
		return sched.Mapping{
			Class: loid.LOID{Domain: "d", Class: "C", Instance: c},
			Host:  loid.LOID{Domain: "d", Class: "H", Instance: h},
			Vault: loid.LOID{Domain: "d", Class: "V", Instance: v},
		}
	}
	for _, nv := range variantCounts {
		m := sched.Master{}
		for i := 0; i < mappings; i++ {
			m.Mappings = append(m.Mappings, mk(1, uint64(i+1), 1))
		}
		// Each variant replaces a few random entries.
		for v := 0; v < nv; v++ {
			var vr sched.Variant
			seen := map[int]bool{}
			for k := 0; k < 3; k++ {
				idx := rng.Intn(mappings)
				if seen[idx] {
					continue
				}
				seen[idx] = true
				vr.AddReplacement(idx, mk(1, uint64(1000+v), 1))
			}
			m.Variants = append(m.Variants, vr)
		}
		failed := sched.NewBitmap(mappings)
		failed.Set(mappings - 1) // worst case: only the last entry failed

		// Naive: rescan each variant's replacement list, counting the
		// entries looked at.
		listScan := func() (found, entries int) {
			for vi := range m.Variants {
				for _, r := range m.Variants[vi].Replacements {
					entries++
					if failed.Get(r.Index) {
						return vi, entries
					}
				}
			}
			return -1, entries
		}

		const iters = 5000
		t0 := time.Now()
		byBitmap := -1
		for i := 0; i < iters; i++ {
			byBitmap = m.NextVariant(0, failed)
		}
		bitmapT := time.Since(t0) / iters

		t0 = time.Now()
		byScan, entries := -1, 0
		for i := 0; i < iters; i++ {
			byScan, entries = listScan()
		}
		scanT := time.Since(t0) / iters

		// The bitmap walk intersects one coverage bitmap per variant it
		// visits, ceil(mappings/64) words each.
		visited := byBitmap + 1
		if byBitmap < 0 {
			visited = nv
		}
		words := visited * ((mappings + 63) / 64)
		selected := fmt.Sprint(byBitmap)
		if byScan != byBitmap {
			selected = fmt.Sprintf("bitmap %d != scan %d", byBitmap, byScan)
		}
		speedup := float64(scanT) / float64(bitmapT)
		t.AddRow(mappings, nv, selected, words, entries, bitmapT, scanT, fmt.Sprintf("%.1fx", speedup))
	}
	t.Notes = append(t.Notes,
		`"a bitmap field ... allows the Enactor to efficiently select the next variant schedule to try"`,
		"selected = index of the first applicable variant; words/select = coverage-bitmap words the walk intersects, entries/select = replacement entries the scan reads")
	return t
}

// Fig6EnactorProtocol drives the Figure 6 Enactor interface through its
// outcome space — clean success, variant-patched success, resource
// failure with rollback, malformed schedule, cancellation — and reports
// the negotiation statistics for each, including the reservation
// thrashing avoided by keeping unchanged reservations across variants.
func Fig6EnactorProtocol() *Table {
	t := &Table{
		ID:    "F6",
		Title: "Enactor protocol (Figure 6): outcomes and negotiation effort",
		Header: []string{"scenario", "result", "reason", "requested", "granted",
			"cancelled", "variants tried"},
	}
	ctx := context.Background()

	build := func(brokenHosts ...int) (*msEnv, func()) {
		env := newMSEnv(6, 4, brokenHosts...)
		return env, func() { env.ms.Close() }
	}

	// Clean success: all mappings on healthy hosts.
	{
		env, done := build()
		req := env.request(
			env.mapping(0), env.mapping(1), env.mapping(2))
		fb := env.ms.Enactor.MakeReservations(ctx, req)
		t.AddRow("3 mappings, all healthy", okStr(fb.Success), fb.Reason,
			fb.Stats.ReservationsRequested, fb.Stats.ReservationsGranted,
			fb.Stats.ReservationsCancelled, fb.Stats.VariantsTried)
		done()
	}
	// Variant-patched success: entry 1 broken, variant redirects it.
	{
		env, done := build(1)
		master := sched.Master{Mappings: []sched.Mapping{env.mapping(0), env.mapping(1)}}
		var v sched.Variant
		v.AddReplacement(1, env.mapping(2))
		master.Variants = []sched.Variant{v}
		req := sched.RequestList{ID: env.ms.Enactor.NewRequestID(),
			Masters: []sched.Master{master}, Res: shareSpec()}
		fb := env.ms.Enactor.MakeReservations(ctx, req)
		t.AddRow("1 broken host, variant patch", okStr(fb.Success), fb.Reason,
			fb.Stats.ReservationsRequested, fb.Stats.ReservationsGranted,
			fb.Stats.ReservationsCancelled, fb.Stats.VariantsTried)
		done()
	}
	// Resource failure: co-allocation rollback cancels partial holdings.
	{
		env, done := build(1)
		req := env.request(env.mapping(0), env.mapping(1))
		fb := env.ms.Enactor.MakeReservations(ctx, req)
		t.AddRow("1 broken host, no variants", okStr(fb.Success), fb.Reason,
			fb.Stats.ReservationsRequested, fb.Stats.ReservationsGranted,
			fb.Stats.ReservationsCancelled, fb.Stats.VariantsTried)
		done()
	}
	// Malformed schedule.
	{
		env, done := build()
		fb := env.ms.Enactor.MakeReservations(ctx, sched.RequestList{ID: 99})
		t.AddRow("empty request list", okStr(fb.Success), fb.Reason,
			fb.Stats.ReservationsRequested, fb.Stats.ReservationsGranted,
			fb.Stats.ReservationsCancelled, fb.Stats.VariantsTried)
		done()
	}
	// cancel_reservations releases resources.
	{
		env, done := build()
		req := env.request(env.mapping(0))
		fb := env.ms.Enactor.MakeReservations(ctx, req)
		err := env.ms.Enactor.CancelReservations(ctx, req.ID)
		t.AddRow("reserve then cancel", okStr(fb.Success && err == nil), "released",
			fb.Stats.ReservationsRequested, fb.Stats.ReservationsGranted,
			"1 (explicit)", fb.Stats.VariantsTried)
		done()
	}
	t.Notes = append(t.Notes,
		"all-or-nothing co-allocation: a failed master cancels everything it obtained",
		"variant patching re-reserves only replaced entries (thrash avoidance)")
	return t
}

// msEnv is a small metasystem with optionally broken hosts for protocol
// experiments.
type msEnv struct {
	ms    *core.Metasystem
	class loid.LOID
	vault loid.LOID
	hosts []loid.LOID
}

func newMSEnv(nHosts, cpus int, broken ...int) *msEnv {
	ms := core.New("uva", core.Options{Seed: 6})
	brokenSet := map[int]bool{}
	for _, b := range broken {
		brokenSet[b] = true
	}
	vaultL := ms.AddVault(vault.Config{Zone: "z1"}).LOID()
	env := &msEnv{ms: ms, vault: vaultL}
	for i := 0; i < nHosts; i++ {
		cfg := host.Config{
			Arch: "x86", OS: "Linux", CPUs: cpus, MemoryMB: 1024, Zone: "z1",
			Vaults: []loid.LOID{vaultL},
		}
		if brokenSet[i] {
			cfg.Policy = func(proto.MakeReservationArgs) error {
				return fmt.Errorf("%w: broken for experiment", host.ErrPolicy)
			}
		}
		h := ms.AddHost(cfg)
		env.hosts = append(env.hosts, h.LOID())
	}
	c := ms.DefineClass("Worker", nil)
	env.class = c.LOID()
	return env
}

func (e *msEnv) mapping(hostIdx int) sched.Mapping {
	return sched.Mapping{Class: e.class, Host: e.hosts[hostIdx], Vault: e.vault}
}

func (e *msEnv) request(ms ...sched.Mapping) sched.RequestList {
	return sched.RequestList{
		ID:      e.ms.Enactor.NewRequestID(),
		Masters: []sched.Master{{Mappings: ms}},
		Res:     shareSpec(),
	}
}

func shareSpec() sched.ReservationSpec {
	return sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour}
}

func okStr(ok bool) string {
	if ok {
		return "success"
	}
	return "failure"
}
