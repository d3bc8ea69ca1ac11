// Federation: two administrative domains, each a separate runtime behind
// its own TCP listener (exactly what two legiond processes would be),
// federated into one metasystem. An application-side Scheduler computes a
// schedule spanning both sites and one domain's Enactor co-allocates
// across the wire — "the Enactor [may] negotiate with several resources
// from different administrative domains to perform co-allocation" (§3).
// The second site's administrator refuses foreign requests on one host,
// and the schedule's variant absorbs the refusal.
//
// Run with: go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"legion/internal/collection"
	"legion/internal/core"
	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/sim"
)

// site boots one domain with two hosts; a non-nil policy is host 1's.
func site(domain string, policy host.PolicyFunc) (*core.Metasystem, string) {
	unix := sim.HostSpec{Arch: "x86", OS: "Linux", OSVer: "2.2", CPUs: 4, MemoryMB: 512, Zone: domain}
	fleet := sim.New(sim.Spec{Domain: domain, Options: core.Options{Seed: 1}, Hosts: []sim.HostSpec{unix, unix}})
	if policy != nil {
		fleet.Hosts[0].SetPolicy(policy)
	}
	ms := fleet.MS
	ms.DefineClass("Worker", nil)
	addr, err := ms.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	return ms, addr
}

func main() {
	ctx := context.Background()

	uva, uvaAddr := site("uva", nil)
	defer uva.Close()
	// sdsc's first host refuses uva-domain requesters (site autonomy).
	sdsc, sdscAddr := site("sdsc", host.RefuseDomains("uva"))
	defer sdsc.Close()
	// uva's Enactor will negotiate with sdsc over TCP.
	uva.Runtime().BindDomain("sdsc", sdscAddr)

	// The application federates with both sites and discovers services.
	app := orb.NewRuntime("app")
	defer app.Close()
	app.BindDomain("uva", uvaAddr)
	app.BindDomain("sdsc", sdscAddr)
	lookup := func(domain string) proto.ServicesReply {
		res, err := orb.Invoke[proto.ServicesReply, any](ctx, app, proto.DirectoryLOID(domain), proto.MethodLookupServices, nil)
		if err != nil {
			log.Fatalf("directory %s: %v", domain, err)
		}
		return res
	}
	uvaDir, sdscDir := lookup("uva"), lookup("sdsc")
	fmt.Printf("federated 2 domains: uva(%d hosts) + sdsc(%d hosts)\n",
		len(uvaDir.Hosts), len(sdscDir.Hosts))

	// One worker in each domain; the sdsc mapping targets the refusing
	// host, with a variant pointing at its tolerant sibling.
	master := sched.Master{Mappings: []sched.Mapping{
		{Class: uvaDir.Classes["Worker"], Host: uvaDir.Hosts[0], Vault: uvaDir.Vaults[0]},
		{Class: uvaDir.Classes["Worker"], Host: sdscDir.Hosts[0], Vault: sdscDir.Vaults[0]},
	}}
	var v sched.Variant
	v.AddReplacement(1, sched.Mapping{
		Class: uvaDir.Classes["Worker"], Host: sdscDir.Hosts[1], Vault: sdscDir.Vaults[0]})
	master.Variants = []sched.Variant{v}

	req := sched.RequestList{
		ID:      42,
		Masters: []sched.Master{master},
		Res:     sched.ReservationSpec{Share: true, Reuse: true, Duration: time.Hour},
	}
	res, err := orb.Invoke[proto.FeedbackReply](ctx, app, uvaDir.Enactor, proto.MethodMakeReservations,
		proto.MakeReservationsArgs{Request: req})
	if err != nil {
		log.Fatal(err)
	}
	fb := res.Feedback
	if !fb.Success {
		log.Fatalf("co-allocation failed: %s", fb.Detail)
	}
	fmt.Printf("co-allocation reserved across domains (variants applied: %v)\n", fb.VariantsApplied)
	fmt.Printf("  sdsc admin refused host %s; variant moved the mapping to %s\n",
		sdscDir.Hosts[0].Short(), fb.Resolved[1].Host.Short())

	eres, err := orb.Invoke[proto.EnactReply](ctx, app, uvaDir.Enactor, proto.MethodEnactSchedule,
		proto.EnactScheduleArgs{RequestID: 42})
	if err != nil || !eres.Success {
		log.Fatalf("enact: %v %v", eres, err)
	}
	insts := eres.Instances
	// The sdsc-resident instance's LOID was minted by uva's class; bind
	// it explicitly so the app can reach it at its new home.
	app.Bind(insts[1][0], sdscAddr)
	for i, group := range insts {
		for _, inst := range group {
			r, err := app.Call(ctx, inst, "ping", nil)
			if err != nil {
				log.Fatalf("ping %v: %v", inst, err)
			}
			fmt.Printf("  instance %d: %s on %s -> %v\n", i, inst.Short(),
				fb.Resolved[i].Host.Short(), r)
		}
	}
	fmt.Println("one application, two autonomous sites, one schedule")

	// Hierarchical Collections (§4): front both sites' Collections with a
	// MetaCollection Router, so one query spans the federation — and keeps
	// answering from the surviving site when a domain drops out.
	router := collection.NewRouter(app, collection.RouterConfig{
		Shards:       []loid.LOID{uvaDir.Collection, sdscDir.Collection},
		ShardTimeout: 2 * time.Second,
		Route:        collection.RouteByDomain(map[string]int{"uva": 0, "sdsc": 1}),
	})
	recs, skipped, err := router.QueryPartial(ctx, `defined($host_arch)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated query: %d hosts across both domains (%d shards skipped)\n",
		len(recs), skipped)

	sdsc.Close() // one whole site goes dark
	recs, skipped, err = router.QueryPartial(ctx, `defined($host_arch)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after sdsc outage: %d hosts still answered, %d shard skipped — partial, not failed\n",
		len(recs), skipped)
}
