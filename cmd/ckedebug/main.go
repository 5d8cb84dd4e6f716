// Command ckedebug dumps internal memory-system state after an isolated
// run (development aid).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

func main() {
	log.SetFlags(0)
	name := flag.String("bench", "bs", "benchmark")
	sms := flag.Int("sms", 4, "SMs")
	cycles := flag.Int64("cycles", 50000, "cycles")
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	cfg := config.Scaled(*sms)
	d, err := kern.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	descs := []*kern.Desc{&d}
	opts := &gpu.Options{
		Cycles:    *cycles,
		Quota:     gpu.UniformQuota(cfg.NumSMs, []int{d.MaxTBsPerSM(&cfg)}),
		PhaseTime: prof.PhaseTrace,
	}
	g, err := gpu.New(cfg, descs, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.RunCycles(opts); err != nil {
		log.Fatal(err)
	}
	r := g.Result()
	fmt.Print(r)
	g.DumpMemState()
	g.Close()
}
