// Command cketrace runs a short concurrent simulation with cycle-level
// event tracing and renders the tail of the trace plus an event summary
// — a window into the memory-pipeline behaviour the paper reasons about
// (watch a ks mem-issue of 17 requests followed by a burst of rsfail
// events stalling everyone).
//
// Usage:
//
//	cketrace -kernels bp,ks [-cycles 20000] [-events 120] [-kind rsfail]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cketrace: ")
	kernels := flag.String("kernels", "bp,ks", "comma-separated kernel names")
	cycles := flag.Int64("cycles", 20_000, "cycles to simulate")
	events := flag.Int("events", 120, "trace tail length to print")
	kindFilter := flag.String("kind", "", "only show events of this kind (e.g. rsfail, mem-issue)")
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	cfg := config.Scaled(1) // one SM: a readable interleaving
	var descs []*kern.Desc
	for _, n := range strings.Split(*kernels, ",") {
		d, err := kern.ByName(strings.TrimSpace(n))
		if err != nil {
			log.Fatal(err)
		}
		dd := d
		descs = append(descs, &dd)
	}
	quota := core.EvenQuota(&cfg, descs)

	buf := trace.New(1 << 16)
	opts := &gpu.Options{
		Cycles:    *cycles,
		Quota:     gpu.UniformQuota(cfg.NumSMs, quota),
		Trace:     buf,
		PhaseTime: prof.PhaseTrace,
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.RunCycles(opts); err != nil {
		log.Fatal(err)
	}
	g.Close() // everything reported below is in buf

	fmt.Printf("workload %s on 1 SM, %d cycles, TB partition %v\n",
		*kernels, *cycles, quota)
	fmt.Printf("%d events recorded (%d retained)\n\n", buf.Total(), len(buf.Snapshot()))

	counts := buf.CountByKind()
	var kinds []trace.Kind
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	fmt.Println("event mix (retained window):")
	for _, k := range kinds {
		fmt.Printf("  %-10s %8d\n", k, counts[k])
	}

	evs := buf.Snapshot()
	if *kindFilter != "" {
		evs = buf.Filter(func(e trace.Event) bool { return e.Kind.String() == *kindFilter })
	}
	if len(evs) > *events {
		evs = evs[len(evs)-*events:]
	}
	fmt.Printf("\ntrace tail (%d events):\n%s", len(evs), trace.Render(evs))
}
