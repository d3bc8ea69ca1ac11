// Command legion-run submits a placement request to a running legiond
// node from a separate process: it binds the node's domain to its TCP
// address, discovers the service objects through the bootstrap
// directory, runs a Scheduler locally (layering (a)/(d) of Figure 2 —
// the application-side Scheduler talking to remote RM services), and
// drives the remote Enactor.
//
//	legion-run -addr 127.0.0.1:7777 -domain uva -count 6 -scheduler irs
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"legion/internal/orb"
	"legion/internal/proto"
	"legion/internal/sched"
	"legion/internal/scheduler"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7777", "legiond TCP address")
		domain    = flag.String("domain", "uva", "legiond administrative domain")
		className = flag.String("class", "Worker", "object class to instantiate")
		count     = flag.Int("count", 4, "number of instances")
		policy    = flag.String("scheduler", "irs", "random | irs | rr | load | cost | economy")
		seed      = flag.Int64("seed", 0, "RNG seed (0 = time-based)")
		share     = flag.Bool("share", true, "timesharing reservations")
		duration  = flag.Duration("duration", time.Hour, "reservation duration")
		ping      = flag.Bool("ping", true, "ping created instances")
		tenant    = flag.String("tenant", "", "tenant account billed for the placement (requires an economy-enabled node)")
		deadline  = flag.Duration("deadline", 0, "completion deadline the economy scheduler places against (0 = none)")
		budget    = flag.Float64("budget", 0, "spend cap for this request in credit units (0 = unlimited)")
	)
	flag.Parse()

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	rt := orb.NewRuntime("client-" + *domain)
	defer rt.Close()
	rt.BindDomain(*domain, *addr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Bootstrap: discover the node's service objects.
	dir, err := orb.Invoke[proto.ServicesReply, any](ctx, rt, proto.DirectoryLOID(*domain), proto.MethodLookupServices, nil)
	if err != nil {
		log.Fatalf("directory lookup at %s: %v", *addr, err)
	}
	classL, ok := dir.Classes[*className]
	if !ok {
		log.Fatalf("node has no class %q (has: %v)", *className, dir.Classes)
	}
	fmt.Printf("discovered: collection=%v enactor=%v class=%v (%d hosts)\n",
		dir.Collection.Short(), dir.Enactor.Short(), classL.Short(), len(dir.Hosts))

	var gen scheduler.Generator
	switch *policy {
	case "random":
		gen = scheduler.Random{}
	case "irs":
		gen = scheduler.IRS{NSched: 4}
	case "rr":
		gen = &scheduler.RoundRobin{}
	case "load":
		gen = scheduler.LoadAware{}
	case "cost":
		gen = scheduler.CostAware{}
	case "economy":
		gen = scheduler.DeadlineBudget{Estimate: *duration}
	default:
		log.Fatalf("unknown scheduler %q", *policy)
	}

	env := &scheduler.Env{
		RT:         rt,
		Collection: dir.Collection,
		Rand:       rand.New(rand.NewSource(*seed)),
	}
	req := scheduler.Request{
		Classes: []scheduler.ClassRequest{{Class: classL, Count: *count}},
		Res: sched.ReservationSpec{Share: *share, Reuse: true, Duration: *duration,
			Tenant: *tenant, Deadline: *deadline, Budget: *budget},
	}

	t0 := time.Now()
	out, err := scheduler.Wrapper{}.Run(ctx, env, dir.Enactor, gen, req)
	if err != nil {
		log.Fatalf("placement: %v", err)
	}
	fmt.Printf("placed %d instance(s) with %s in %v (%d schedule / %d enact attempts)\n",
		*count, gen.Name(), time.Since(t0).Round(time.Millisecond),
		out.SchedAttempts, out.EnactAttempts)
	for i, insts := range out.Instances {
		m := out.Feedback.Resolved[i]
		for _, inst := range insts {
			fmt.Printf("  %s on %s (vault %s)", inst.Short(), m.Host.Short(), m.Vault.Short())
			if *ping {
				if r, err := rt.Call(ctx, inst, "ping", nil); err == nil {
					fmt.Printf(" ping=%v", r)
				} else {
					fmt.Printf(" ping-error=%v", err)
				}
			}
			fmt.Println()
		}
	}
}
