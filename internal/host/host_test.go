package host

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"legion/internal/attr"
	"legion/internal/batchq"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/reservation"
	"legion/internal/telemetry"
	"legion/internal/vault"
	"legion/internal/vclock"
)

// testEnv is a runtime with one vault and one (configurable) host.
type testEnv struct {
	rt    *orb.Runtime
	vault *vault.Vault
	host  *Host
}

func newEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	return newEnvOn(t, nil, mutate)
}

// newEnvOn is newEnv on a runtime running on clock (nil = the wall
// clock).
func newEnvOn(t *testing.T, clock vclock.Clock, mutate func(*Config)) *testEnv {
	t.Helper()
	rt := orb.NewRuntime("uva")
	rt.SetClock(clock)
	// Private registry: metric assertions stay independent of other
	// tests (and -count=N reruns) sharing telemetry.Default.
	rt.SetMetrics(telemetry.NewRegistry())
	v := vault.New(rt, vault.Config{Zone: "z1"})
	cfg := Config{
		Arch: "sparc", OS: "IRIX", OSVersion: "5.3",
		CPUs: 4, MemoryMB: 512, Zone: "z1",
		Vaults: []loid.LOID{v.LOID()},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h := New(rt, cfg)
	return &testEnv{rt: rt, vault: v, host: h}
}

func (e *testEnv) reserve(t *testing.T, ty reservation.Type) *reservation.Token {
	t.Helper()
	tok, err := e.host.MakeReservation(context.Background(), proto.MakeReservationArgs{
		Requester: loid.LOID{Domain: "uva", Class: "Sched", Instance: 1},
		Vault:     e.vault.LOID(),
		Type:      ty,
		Duration:  time.Hour,
	})
	if err != nil {
		t.Fatalf("MakeReservation: %v", err)
	}
	return tok
}

var classL = loid.LOID{Domain: "uva", Class: "Class", Instance: 9}

func instances(n int) []loid.LOID {
	out := make([]loid.LOID, n)
	for i := range out {
		out[i] = loid.LOID{Domain: "uva", Class: "Worker", Instance: uint64(100 + i)}
	}
	return out
}

func TestTable1InterfaceComplete(t *testing.T) {
	// The Host must expose every Table 1 method plus the RGE calls.
	e := newEnv(t, nil)
	want := []string{
		proto.MethodMakeReservation, proto.MethodCheckReservation, proto.MethodCancelReservation,
		proto.MethodStartObject, proto.MethodKillObject, proto.MethodDeactivateObject,
		proto.MethodGetCompatibleVaults, proto.MethodVaultOK, proto.MethodGetAttributes,
		proto.MethodDefineTrigger, proto.MethodRegisterOutcall,
	}
	have := map[string]bool{}
	for _, m := range e.host.Methods() {
		have[m] = true
	}
	for _, m := range want {
		if !have[m] {
			t.Errorf("Table 1 method %q not exposed", m)
		}
	}
}

func TestReserveStartPingKill(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	tok := e.reserve(t, reservation.ReusableTimesharing)

	insts := instances(2)
	started, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: insts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 {
		t.Fatalf("started %v", started)
	}
	if e.host.RunningCount() != 2 {
		t.Errorf("RunningCount = %d", e.host.RunningCount())
	}
	// The instances are live objects reachable through the runtime.
	res, err := e.rt.Call(ctx, insts[0], "ping", nil)
	if err != nil || res != "pong" {
		t.Errorf("ping: %v %v", res, err)
	}

	if err := e.host.KillObject(ctx, insts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Call(ctx, insts[0], "ping", nil); !errors.Is(err, orb.ErrNotBound) {
		t.Errorf("killed object still answers: %v", err)
	}
	if err := e.host.KillObject(ctx, insts[0]); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("double kill: %v", err)
	}
	if e.host.RunningCount() != 1 {
		t.Errorf("RunningCount after kill = %d", e.host.RunningCount())
	}
}

func TestStartObjectRequiresValidToken(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	// Forged token.
	forged := reservation.Token{ID: 99, Host: e.host.LOID(), Vault: e.vault.LOID(),
		Duration: time.Hour, MAC: []byte("forged")}
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: forged, Class: classL, Instances: instances(1),
	}); !errors.Is(err, reservation.ErrInvalidToken) {
		t.Errorf("forged token: %v", err)
	}
	// One-shot token consumed by first start.
	tok := e.reserve(t, reservation.OneShotTimesharing)
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: instances(1)[:1],
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: []loid.LOID{{Domain: "uva", Class: "W", Instance: 500}},
	}); !errors.Is(err, reservation.ErrInvalidToken) {
		t.Errorf("reused one-shot: %v", err)
	}
	// No instances is an error.
	tok2 := e.reserve(t, reservation.ReusableTimesharing)
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok2, Class: classL}); err == nil {
		t.Error("empty instance list accepted")
	}
}

func TestPolicyRefusal(t *testing.T) {
	e := newEnv(t, nil)
	e.host.SetPolicy(RefuseDomains("evil", "worse"))
	_, err := e.host.MakeReservation(context.Background(), proto.MakeReservationArgs{
		Requester: loid.LOID{Domain: "evil", Class: "Sched", Instance: 1},
		Vault:     e.vault.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
	})
	if !errors.Is(err, ErrPolicy) {
		t.Errorf("refused domain: %v", err)
	}
	// Friendly domain passes.
	if _, err := e.host.MakeReservation(context.Background(), proto.MakeReservationArgs{
		Requester: loid.LOID{Domain: "uva", Class: "Sched", Instance: 1},
		Vault:     e.vault.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
	}); err != nil {
		t.Errorf("friendly domain: %v", err)
	}
}

func TestVaultReachability(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	// Unknown vault.
	ghost := loid.LOID{Domain: "uva", Class: "Vault", Instance: 99}
	if _, err := e.host.MakeReservation(ctx, proto.MakeReservationArgs{
		Vault: ghost, Type: reservation.ReusableTimesharing, Duration: time.Hour,
	}); !errors.Is(err, ErrVaultUnreachable) {
		t.Errorf("unknown vault: %v", err)
	}
	// Wrong-zone vault: in the host's list but zone-incompatible.
	rt2 := e.rt
	farVault := vault.New(rt2, vault.Config{Zone: "far-zone"})
	e2 := newEnv(t, func(c *Config) {
		c.Vaults = []loid.LOID{farVault.LOID()}
	})
	// e2 has its own runtime; bind the far vault into it.
	if _, ok := e2.rt.Lookup(farVault.LOID()); !ok {
		// farVault lives in e.rt; register there and call across —
		// simplest is registering the vault object into e2's runtime.
		e2.rt.Register(farVault)
	}
	if _, err := e2.host.MakeReservation(ctx, proto.MakeReservationArgs{
		Vault: farVault.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
	}); !errors.Is(err, ErrVaultUnreachable) {
		t.Errorf("incompatible zone: %v", err)
	}
	// Vault down (not bound anywhere).
	e3 := newEnv(t, func(c *Config) {
		c.Vaults = []loid.LOID{ghost}
	})
	if _, err := e3.host.MakeReservation(ctx, proto.MakeReservationArgs{
		Vault: ghost, Type: reservation.ReusableTimesharing, Duration: time.Hour,
	}); !errors.Is(err, ErrVaultUnreachable) {
		t.Errorf("vault down: %v", err)
	}
}

func TestCheckAndCancelReservation(t *testing.T) {
	e := newEnv(t, nil)
	tok := e.reserve(t, reservation.ReusableSpaceSharing)
	if err := e.host.CheckReservation(tok); err != nil {
		t.Errorf("Check: %v", err)
	}
	if err := e.host.CancelReservation(tok); err != nil {
		t.Errorf("Cancel: %v", err)
	}
	if err := e.host.CheckReservation(tok); err == nil {
		t.Error("cancelled token checks OK")
	}
}

func TestDeactivateAndReactivateWithState(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	tok := e.reserve(t, reservation.ReusableTimesharing)
	inst := instances(1)[0]
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: []loid.LOID{inst},
	}); err != nil {
		t.Fatal(err)
	}
	// Mutate the object's state, then deactivate.
	if _, err := e.rt.Call(ctx, inst, "set", []string{"answer", "42"}); err != nil {
		t.Fatal(err)
	}
	e.rt.Call(ctx, inst, "ping", nil)
	o, vaultL, err := e.host.DeactivateObject(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	if vaultL != e.vault.LOID() {
		t.Errorf("OPR stored in %v", vaultL)
	}
	if e.host.RunningCount() != 0 {
		t.Error("object still running after deactivate")
	}
	if _, err := e.rt.Call(ctx, inst, "ping", nil); !errors.Is(err, orb.ErrNotBound) {
		t.Errorf("deactivated object answers: %v", err)
	}
	// The OPR is in the vault.
	stored, err := e.vault.Retrieve(inst)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Version != o.Version {
		t.Errorf("vault holds version %d, deactivate returned %d", stored.Version, o.Version)
	}

	// Reactivate on the same host from the OPR (migration's second half).
	tok2 := e.reserve(t, reservation.ReusableTimesharing)
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok2, Class: classL, Instances: []loid.LOID{inst}, State: stored,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := e.rt.Call(ctx, inst, "get", "answer")
	if err != nil || got != "42" {
		t.Errorf("state after reactivation: %v %v", got, err)
	}
	// Reactivation with multiple instances is rejected.
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok2, Class: classL, Instances: instances(2), State: stored,
	}); err == nil {
		t.Error("multi-instance reactivation accepted")
	}
}

func TestDeactivateUnknownObject(t *testing.T) {
	e := newEnv(t, nil)
	if _, _, err := e.host.DeactivateObject(context.Background(), instances(1)[0]); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("deactivate unknown: %v", err)
	}
}

func TestKillDeletesOPR(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	tok := e.reserve(t, reservation.ReusableTimesharing)
	inst := instances(1)[0]
	e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok, Class: classL, Instances: []loid.LOID{inst}})
	// Deactivate stores an OPR; reactivate; kill should remove the OPR.
	o, _, _ := e.host.DeactivateObject(ctx, inst)
	e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok, Class: classL, Instances: []loid.LOID{inst}, State: o})
	if err := e.host.KillObject(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if _, err := e.vault.Retrieve(inst); !errors.Is(err, vault.ErrNotFound) {
		t.Errorf("OPR survives kill: %v", err)
	}
}

func TestAttributesAndReassess(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	m := attr.FromPairs(e.host.Attributes())
	for _, name := range []string{"host_arch", "host_os_name", "host_os_version", "host_cpus",
		"host_memory_mb", "host_mem_available_mb", "host_zone", "host_domain",
		"host_cost_per_cpu", "host_load", "host_running_objects", "host_queue_length",
		"host_is_batch", "host_loid"} {
		if _, ok := m[name]; !ok {
			t.Errorf("attribute %s missing", name)
		}
	}
	if m["host_arch"].Str() != "sparc" || m["host_is_batch"].BoolVal() {
		t.Error("attribute values wrong")
	}

	tok := e.reserve(t, reservation.ReusableTimesharing)
	e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok, Class: classL, Instances: instances(2)})
	e.host.SetExternalLoad(0.5)
	e.host.Reassess(ctx)
	m = attr.FromPairs(e.host.Attributes())
	if got := m["host_load"].FloatVal(); got != 0.5+2.0/4.0 {
		t.Errorf("host_load = %v", got)
	}
	if m["host_running_objects"].IntVal() != 2 {
		t.Errorf("host_running_objects = %v", m["host_running_objects"])
	}
	if m["host_mem_available_mb"].IntVal() != 512-128 {
		t.Errorf("host_mem_available_mb = %v", m["host_mem_available_mb"])
	}
	if e.host.Load() != 1.0 {
		t.Errorf("Load() = %v", e.host.Load())
	}
}

func TestTriggerOutcallToMonitor(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()

	// A fake Monitor object records notifications.
	notified := make(chan proto.NotifyArgs, 1)
	mon := orb.NewServiceObject(e.rt.Mint("Monitor"))
	mon.Handle(proto.MethodNotify, func(_ context.Context, arg any) (any, error) {
		notified <- arg.(proto.NotifyArgs)
		return proto.Ack{}, nil
	})
	e.rt.Register(mon)

	if _, err := e.rt.Call(ctx, e.host.LOID(), proto.MethodDefineTrigger,
		proto.DefineTriggerArgs{Name: "overload", Guard: "$host_load > 0.8"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Call(ctx, e.host.LOID(), proto.MethodRegisterOutcall,
		proto.RegisterOutcallArgs{Trigger: "overload", Monitor: mon.LOID()}); err != nil {
		t.Fatal(err)
	}

	e.host.SetExternalLoad(0.2)
	e.host.Reassess(ctx)
	select {
	case ev := <-notified:
		t.Fatalf("fired below threshold: %+v", ev)
	default:
	}

	e.host.SetExternalLoad(0.95)
	e.host.Reassess(ctx)
	select {
	case ev := <-notified:
		if ev.Source != e.host.LOID() || ev.Trigger != "overload" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no outcall")
	}
}

func TestPushModelToCollectionStub(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	got := make(chan proto.UpdateArgs, 1)
	coll := orb.NewServiceObject(e.rt.Mint("Collection"))
	coll.Handle(proto.MethodUpdateCollectionEntry, func(_ context.Context, arg any) (any, error) {
		got <- arg.(proto.UpdateArgs)
		return proto.Ack{}, nil
	})
	e.rt.Register(coll)

	e.host.PushTo(coll.LOID(), "secret")
	e.host.SetExternalLoad(0.3)
	e.host.Reassess(ctx)
	select {
	case u := <-got:
		if u.Member != e.host.LOID() || u.Credential != "secret" {
			t.Errorf("update = %+v", u)
		}
		m := attr.FromPairs(u.Attrs)
		if m["host_load"].FloatVal() != 0.3 {
			t.Errorf("pushed load = %v", m["host_load"])
		}
	default:
		t.Fatal("no push")
	}
}

func TestBatchQueueHost(t *testing.T) {
	q := batchq.New(batchq.Config{Name: "ll", Slots: 1, DispatchDelay: 10 * time.Millisecond})
	e := newEnv(t, func(c *Config) { c.Queue = q })
	ctx := context.Background()

	m := attr.FromPairs(e.host.Attributes())
	if !m["host_is_batch"].BoolVal() {
		t.Error("host_is_batch should be true")
	}

	tok := e.reserve(t, reservation.ReusableTimesharing)
	inst := instances(1)[0]
	t0 := time.Now()
	started, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: []loid.LOID{inst},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Errorf("batch start returned in %v, before dispatch delay", d)
	}
	if len(started) != 1 {
		t.Fatalf("started %v", started)
	}
	if res, err := e.rt.Call(ctx, inst, "ping", nil); err != nil || res != "pong" {
		t.Errorf("ping: %v %v", res, err)
	}

	// With the slot occupied, a second start blocks; a short ctx cancels
	// it and the queued job is withdrawn.
	ctx2, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	inst2 := loid.LOID{Domain: "uva", Class: "Worker", Instance: 777}
	if _, err := e.host.StartObject(ctx2, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: []loid.LOID{inst2},
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked batch start: %v", err)
	}
	if q.QueueLength() != 0 {
		t.Errorf("cancelled job left in queue: %d", q.QueueLength())
	}

	// Killing the first frees the slot for a new start.
	if err := e.host.KillObject(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if _, err := e.host.StartObject(ctx, proto.StartObjectArgs{
		Token: *tok, Class: classL, Instances: []loid.LOID{inst2},
	}); err != nil {
		t.Errorf("start after slot freed: %v", err)
	}
}

// TestBatchQueueHostVirtualReplay runs a one-slot Batch Queue Host on the
// virtual clock: a second activation waits in the queue until the first
// object is killed, and starts once the killer has parked. Two runs fire
// the same events.
func TestBatchQueueHostVirtualReplay(t *testing.T) {
	run := func() []string {
		vc := vclock.NewVirtualAt(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC))
		q := batchq.New(batchq.Config{Name: "ll", Slots: 1, Clock: vc})
		e := newEnvOn(t, vc, func(c *Config) { c.Queue = q })
		insts := instances(2)
		vc.StartTrace()
		vc.Run(func() {
			ctx := context.Background()
			tok := e.reserve(t, reservation.ReusableTimesharing)
			start := func(inst loid.LOID) error {
				_, err := e.host.StartObject(ctx, proto.StartObjectArgs{
					Token: *tok, Class: classL, Instances: []loid.LOID{inst},
				})
				return err
			}
			if err := start(insts[0]); err != nil {
				t.Errorf("first start: %v", err)
				return
			}
			second := vc.NewGroup()
			second.Add(1)
			var err2 error
			vc.Go(func() {
				defer second.Done()
				err2 = start(insts[1])
			})
			if err := vc.Sleep(ctx, time.Millisecond); err != nil {
				t.Errorf("sleep: %v", err)
				return
			}
			if n, running := q.QueueLength(), e.host.RunningCount(); n != 1 || running != 1 {
				t.Errorf("with the slot held: %d queued, %d running, want 1 and 1", n, running)
			}
			if err := e.host.KillObject(ctx, insts[0]); err != nil {
				t.Errorf("kill: %v", err)
				return
			}
			if err := second.Wait(ctx); err != nil || err2 != nil {
				t.Errorf("second start: %v, %v", err, err2)
				return
			}
			if res, err := e.rt.Call(ctx, insts[1], "ping", nil); err != nil || res != "pong" {
				t.Errorf("ping the second object: %v %v", res, err)
			}
			if n, running := q.QueueLength(), e.host.RunningCount(); n != 0 || running != 1 {
				t.Errorf("after the kill: %d queued, %d running, want 0 and 1", n, running)
			}
		})
		return vc.Trace()
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Errorf("the same run fired different events: %d events, then %d", len(first), len(second))
	}
}

func TestOrbProtocolEndToEnd(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()

	res, err := e.rt.Call(ctx, e.host.LOID(), proto.MethodMakeReservation, proto.MakeReservationArgs{
		Vault: e.vault.LOID(), Type: reservation.ReusableTimesharing, Duration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	tok := res.(proto.MakeReservationReply).Token

	res, err = e.rt.Call(ctx, e.host.LOID(), proto.MethodCheckReservation, proto.TokenArgs{Token: tok})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("check: %v %v", res, err)
	}

	inst := instances(1)[0]
	res, err = e.rt.Call(ctx, e.host.LOID(), proto.MethodStartObject, proto.StartObjectArgs{
		Token: tok, Class: classL, Instances: []loid.LOID{inst},
	})
	if err != nil || len(res.(proto.StartObjectReply).Started) != 1 {
		t.Fatalf("start: %v %v", res, err)
	}

	res, err = e.rt.Call(ctx, e.host.LOID(), proto.MethodGetCompatibleVaults, nil)
	if err != nil || len(res.(proto.CompatibleVaultsReply).Vaults) != 1 {
		t.Errorf("vaults: %v %v", res, err)
	}
	res, err = e.rt.Call(ctx, e.host.LOID(), proto.MethodVaultOK, proto.VaultOKArgs{Vault: e.vault.LOID()})
	if err != nil || !res.(proto.BoolReply).OK {
		t.Errorf("vault_OK: %v %v", res, err)
	}
	res, err = e.rt.Call(ctx, e.host.LOID(), proto.MethodGetAttributes, nil)
	if err != nil || len(res.(proto.AttributesReply).Attrs) == 0 {
		t.Errorf("attrs: %v %v", res, err)
	}

	res, err = e.rt.Call(ctx, e.host.LOID(), proto.MethodDeactivateObject, proto.ObjectArgs{Object: inst})
	if err != nil {
		t.Fatal(err)
	}
	if res.(proto.DeactivateReply).Vault != e.vault.LOID() {
		t.Errorf("deactivate: %+v", res)
	}
	if _, err := e.rt.Call(ctx, e.host.LOID(), proto.MethodCancelReservation, proto.TokenArgs{Token: tok}); err != nil {
		t.Errorf("cancel: %v", err)
	}

	// Bad argument types surface as errors, not panics.
	for _, method := range []string{proto.MethodMakeReservation, proto.MethodCheckReservation,
		proto.MethodCancelReservation, proto.MethodStartObject, proto.MethodKillObject,
		proto.MethodDeactivateObject, proto.MethodVaultOK, proto.MethodDefineTrigger,
		proto.MethodRegisterOutcall} {
		if _, err := e.rt.Call(ctx, e.host.LOID(), method, 3.14); err == nil {
			t.Errorf("method %s accepted bad arg type", method)
		}
	}
}

func TestStartReassessing(t *testing.T) {
	e := newEnv(t, nil)
	stop := e.host.StartReassessing(5 * time.Millisecond)
	defer stop()
	e.host.SetExternalLoad(0.7)
	deadline := time.Now().Add(2 * time.Second)
	for {
		m := attr.FromPairs(e.host.Attributes())
		if m["host_load"].FloatVal() == 0.7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic reassessment never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
}

func TestAccessorsAndGenericObject(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	if e.host.Zone() != "z1" {
		t.Errorf("Zone = %q", e.host.Zone())
	}
	if e.host.Triggers() == nil {
		t.Error("Triggers nil")
	}

	tok := e.reserve(t, reservation.ReusableTimesharing)
	inst := instances(1)[0]
	e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok, Class: classL, Instances: []loid.LOID{inst}})
	ri := e.host.RunningInstances()
	if len(ri) != 1 || ri[0] != inst {
		t.Errorf("RunningInstances = %v", ri)
	}

	obj, _ := e.rt.Lookup(inst)
	g := obj.(*GenericObject)
	e.rt.Call(ctx, inst, "ping", nil)
	e.rt.Call(ctx, inst, "ping", nil)
	if g.Pings() != 2 {
		t.Errorf("Pings = %d", g.Pings())
	}
	if g.Generation() != 0 {
		t.Errorf("Generation = %d", g.Generation())
	}
	// Deactivate + reactivate: pings persist, generation increments.
	o, _, err := e.host.DeactivateObject(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok, Class: classL,
		Instances: []loid.LOID{inst}, State: o})
	obj2, _ := e.rt.Lookup(inst)
	g2 := obj2.(*GenericObject)
	if g2.Pings() != 2 || g2.Generation() != 1 {
		t.Errorf("after reactivation: pings=%d gen=%d", g2.Pings(), g2.Generation())
	}
	// Bad args to generic object methods error.
	if _, err := e.rt.Call(ctx, inst, "get", 42); err == nil {
		t.Error("get with non-string key accepted")
	}
	if _, err := e.rt.Call(ctx, inst, "set", "notapair"); err == nil {
		t.Error("set with bad arg accepted")
	}
}

// TestSetClockPropagates: the clock installed on the runtime before the
// Host is built reaches the Host's reservation table, so a grant's Start
// is stamped at the runtime's time, not the wall time.
func TestSetClockPropagates(t *testing.T) {
	fixed := time.Date(1999, 4, 12, 0, 0, 0, 0, time.UTC)
	e := newEnvOn(t, vclock.NewVirtualAt(fixed), nil)
	tok := e.reserve(t, reservation.ReusableTimesharing)
	if !tok.Start.Equal(fixed) {
		t.Errorf("reservation start = %v, want %v", tok.Start, fixed)
	}
}

// TestDrainReportsVaultFailure: an object cannot be drained off a host
// whose vault is gone. DeactivateObject fails and the object keeps
// running.
func TestDrainReportsVaultFailure(t *testing.T) {
	e := newEnv(t, nil)
	ctx := context.Background()
	tok := e.reserve(t, reservation.ReusableTimesharing)
	inst := instances(1)[0]
	e.host.StartObject(ctx, proto.StartObjectArgs{Token: *tok, Class: classL, Instances: []loid.LOID{inst}})
	// Vault disappears: deactivation cannot store the OPR.
	e.rt.Unregister(e.vault.LOID())
	if _, _, err := e.host.DeactivateObject(ctx, inst); err == nil {
		t.Error("deactivate with dead vault succeeded")
	}
	// The object is still running (deactivation aborted safely).
	if e.host.RunningCount() != 1 {
		t.Errorf("running = %d", e.host.RunningCount())
	}
}

// TestGenericObjectCrossesTheWire drives ping/set/get — the methods
// whose arguments and results are bare string and []string, not proto
// messages — over a real TCP connection and under the loopback codec
// boundary, pinning the codec's two built-in payload tags end to end.
func TestGenericObjectCrossesTheWire(t *testing.T) {
	server := orb.NewRuntime("srv")
	g, err := NewGenericObject(server.Mint("Worker"), nil)
	if err != nil {
		t.Fatal(err)
	}
	server.Register(g)
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := orb.NewRuntime("cli")
	defer client.Close()
	client.Bind(g.LOID(), addr)

	local := orb.NewRuntime("loop")
	local.SetLoopbackCodec(true)
	lg, err := NewGenericObject(local.Mint("Worker"), nil)
	if err != nil {
		t.Fatal(err)
	}
	local.Register(lg)

	ctx := context.Background()
	for _, tc := range []struct {
		name string
		rt   *orb.Runtime
		obj  *GenericObject
	}{{"tcp", client, g}, {"loopback", local, lg}} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.obj.LOID()
			if res, err := tc.rt.Call(ctx, l, "ping", nil); err != nil || res != "pong" {
				t.Fatalf("ping: %v %v", res, err)
			}
			if res, err := tc.rt.Call(ctx, l, "set", []string{"phase", "warm-up"}); err != nil || res != nil {
				t.Fatalf("set: %v %v", res, err)
			}
			if res, err := tc.rt.Call(ctx, l, "get", "phase"); err != nil || res != "warm-up" {
				t.Fatalf("get: %v %v", res, err)
			}
			if res, err := tc.rt.Call(ctx, l, "get", "absent"); err != nil || res != "" {
				t.Fatalf("get absent: %#v %v", res, err)
			}
			if tc.obj.Pings() != 1 {
				t.Fatalf("pings = %d, want 1", tc.obj.Pings())
			}
		})
	}
}
