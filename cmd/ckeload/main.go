// Command ckeload is the open-loop load generator for ckeserve: it
// calibrates (or accepts) a base offered rate, sweeps that rate through
// a list of multipliers on a deterministic arrival schedule, classifies
// every job against its deadline, and writes a JSON report. Because the
// generator is open-loop, a server that slows down under pressure still
// faces the full offered rate — this is what makes "goodput at 5x stays
// near the 1x plateau" a real claim rather than an artifact of the
// client backing off.
//
//	ckeload -url http://127.0.0.1:8329 -multipliers 1,5 \
//	    -duration 30s -deadline 2s -out overload.json
//
// With -rate 0 (the default) the base rate is calibrated by running a
// few jobs closed-loop at concurrency 1, which deliberately
// underestimates a multi-worker server — so the high multipliers are
// genuinely past capacity. Exit status is 0 even when the server sheds
// heavily; sheds are the mechanism under test, not a failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckeload: ")
	url := flag.String("url", "http://127.0.0.1:8329", "target ckeserve base URL")
	rate := flag.Float64("rate", 0, "base offered rate in jobs/sec (0 = calibrate against the live server)")
	calibrateJobs := flag.Int("calibrate-jobs", 4, "closed-loop jobs used to calibrate the base rate when -rate is 0")
	multipliers := flag.String("multipliers", "1,5", "comma-separated rate multipliers, one sweep stage each")
	duration := flag.Duration("duration", 30*time.Second, "offered-load window per stage (stragglers are still awaited)")
	deadline := flag.Duration("deadline", 0, "per-job deadline sent with every request (0 = none)")
	grace := flag.Duration("grace", 250*time.Millisecond, "client-side slack before a success past deadline counts as late")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson or fixed")
	seed := flag.Uint64("seed", 1, "PRNG seed for the arrival schedule and fingerprint variation")
	unique := flag.Int("unique", 256, "distinct job fingerprints to cycle through")
	sms := flag.Int("sms", 2, "SMs per job")
	cycles := flag.Int64("cycles", 8000, "measured cycles per job")
	profileCycles := flag.Int64("profile-cycles", 6000, "profiling cycles per job")
	kernels := flag.String("kernels", "bp,ks", "comma-separated kernel mix per job")
	fresh := flag.Bool("fresh", true, "send fresh=1 so the result store cannot stand in for simulation")
	settle := flag.Duration("settle", 2*time.Second, "pause between stages so queue residue cannot bleed across")
	out := flag.String("out", "", "write the JSON report here (empty = stdout)")
	flag.Parse()

	if err := cli.CheckMachine(*sms, *cycles, *profileCycles, 0); err != nil {
		log.Fatal(err)
	}
	ms, err := loadgen.ParseMultipliers(*multipliers)
	if err != nil {
		log.Fatal(err)
	}
	var ks []string
	for _, k := range strings.Split(*kernels, ",") {
		if k = strings.TrimSpace(k); k != "" {
			ks = append(ks, k)
		}
	}
	cfg := loadgen.Config{
		URL:           *url,
		Duration:      *duration,
		Arrivals:      *arrivals,
		Seed:          *seed,
		Deadline:      *deadline,
		Grace:         *grace,
		SMs:           *sms,
		Cycles:        *cycles,
		ProfileCycles: *profileCycles,
		Kernels:       ks,
		Unique:        *unique,
		Fresh:         *fresh,
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	base := *rate
	calibrated := false
	if base <= 0 {
		log.Printf("calibrating base rate with %d closed-loop jobs against %s", *calibrateJobs, *url)
		base, err = loadgen.Calibrate(ctx, cfg, *calibrateJobs)
		if err != nil {
			log.Fatal(err)
		}
		calibrated = true
		log.Printf("calibrated base rate: %.2f jobs/sec", base)
	}

	rep, err := loadgen.Sweep(ctx, cfg, base, ms, *settle, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	rep.Calibrated = calibrated
	if statz, err := loadgen.FetchStatz(ctx, nil, *url); err != nil {
		log.Printf("statz snapshot unavailable: %v", err)
	} else {
		rep.ServerStatz = statz
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else {
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *out)
	}
	for _, m := range ms {
		if m != 1 {
			fmt.Fprintf(os.Stderr, "ckeload: goodput(%gx)/goodput(1x) = %.3f\n", m, rep.GoodputRatio(m))
		}
	}
}
