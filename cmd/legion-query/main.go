// Command legion-query runs a Collection query against a running legiond
// node — the §3.2 user path ("Users, or their agents, obtain information
// about resources by issuing queries to a Collection") as a CLI.
//
//	legion-query -addr 127.0.0.1:7777 -domain uva \
//	    -q 'match("Linux", $host_os_name) and $host_load < 0.5'
//
// With -watch, the query repeats on an interval, showing the live state
// the Hosts push on reassessment.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"legion/internal/attr"
	"legion/internal/orb"
	"legion/internal/proto"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7777", "legiond TCP address")
		domain  = flag.String("domain", "uva", "legiond administrative domain")
		q       = flag.String("q", "defined($host_arch)", "query expression")
		watch   = flag.Duration("watch", 0, "repeat interval (0 = run once)")
		verbose = flag.Bool("v", false, "print every attribute of each record")
	)
	flag.Parse()

	rt := orb.NewRuntime("query-client")
	defer rt.Close()
	rt.BindDomain(*domain, *addr)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	dir, err := orb.Invoke[proto.ServicesReply, any](ctx, rt, proto.DirectoryLOID(*domain), proto.MethodLookupServices, nil)
	cancel()
	if err != nil {
		log.Fatalf("directory lookup at %s: %v", *addr, err)
	}

	run := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := orb.Invoke[proto.QueryReply](ctx, rt, dir.Collection, proto.MethodQueryCollection, proto.QueryArgs{Query: *q})
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		recs := res.Records
		fmt.Printf("%d record(s) match %q\n", len(recs), *q)
		for _, r := range recs {
			if *verbose {
				fmt.Printf("  %s\n", r.Member)
				for _, p := range r.Attrs {
					fmt.Printf("    %-26s %s\n", p.Name, p.Value)
				}
				continue
			}
			get := func(name string) attr.Value {
				v, _ := attr.Lookup(r.Attrs, name)
				return v
			}
			fmt.Printf("  %-14s %s/%s load=%s cpus=%s\n", r.Member.Short(),
				get("host_arch").Str(), get("host_os_name").Str(),
				get("host_load"), get("host_cpus"))
		}
	}

	run()
	if *watch > 0 {
		for range time.Tick(*watch) {
			fmt.Println("---")
			run()
		}
	}
}
