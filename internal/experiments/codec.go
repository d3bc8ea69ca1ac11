package experiments

import (
	"fmt"
	"time"

	"legion/internal/sim"
)

// runCodecCampaign is one reduced E12 run with a marshalling boundary on
// local dispatch. Virtual time is untouched by the boundary (encoding
// is synchronous CPU work, invisible to the discrete-event clock), so
// the campaign's placements, sheds, latencies, and event trace must be
// identical with and without it — only the wall-clock differs. That is
// the point: the delta between the two rows is pure codec cost, measured
// inside the real placement pipeline rather than a microbenchmark loop.
func runCodecCampaign(boundary bool, hosts, requests int, keepTrace bool) campaignRun {
	return virtualCampaign{
		domain: "codec", seed: 13,
		specs: sim.RandomSpecs, zones: []string{"z1", "z2"},
		hosts: hosts, requests: requests,
		built:     func(f *sim.Fleet) { f.MS.Runtime().SetLoopbackCodec(boundary) },
		keepTrace: keepTrace,
	}.run()
}

// E13CodecBoundary reruns a reduced E12 virtual-time campaign twice —
// no marshalling boundary (E12's own configuration) and the wire codec
// on every local dispatch — and reports the wall-clock cost of each.
// Every placement's argument and result crosses the codec exactly as it
// would cross a connection, so the delta is the serialization time the
// metasystem's hot path pays.
//
// hosts/requests <= 0 default to 10,000 hosts and 50,000 placements
// (the committed EXPERIMENTS.md row, matching E12's CI-reduced size).
func E13CodecBoundary(hosts, requests int) *Table {
	if hosts <= 0 {
		hosts = 10_000
	}
	if requests <= 0 {
		requests = 50_000
	}
	t := &Table{
		ID:    "E13",
		Title: "Codec boundary: E12 campaign wall-clock with and without wire marshalling",
		Header: []string{"codec", "hosts", "requests", "ok", "shed", "failed",
			"p50", "p99", "vtime", "wall", "wall vs off", "leaks"},
	}

	base := runCodecCampaign(false, hosts, requests, false)
	for _, row := range []struct {
		codec string
		run   campaignRun
	}{
		{"off", base},
		{"binary", runCodecCampaign(true, hosts, requests, false)},
	} {
		r := row.run
		t.AddRow(row.codec, hosts, requests, r.res.Succeeded, r.res.Shed, r.res.Failed,
			r.res.Percentile(0.50), r.res.Percentile(0.99),
			r.res.Elapsed.Round(time.Millisecond), r.wall.Round(time.Millisecond),
			fmt.Sprintf("%+.0f%%", 100*(float64(r.wall)/float64(base.wall)-1)),
			r.leaks)
	}
	t.Notes = append(t.Notes,
		"same seed, same virtual-time schedule in both rows: placements, sheds, and virtual latencies are identical by construction (asserted by TestE13CodecDifferential)",
		"the boundary round-trips every method argument and result through the wire codec on local dispatch; 'off' is E12's own configuration",
		"wall vs off = extra wall-clock the codec adds to the whole campaign")
	return t
}
