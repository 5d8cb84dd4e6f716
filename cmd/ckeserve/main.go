// Command ckeserve runs the simulator as a long-lived HTTP job service:
// clients POST simulation jobs and the service executes each admitted
// job once on the concurrent runner pool, with bounded admission,
// deadlines, a result store, and SIGTERM drain. A transient failure
// is answered "transient": true for the client (or the fleet
// coordinator) to resubmit. See internal/server for the degradation
// model and DESIGN.md §10 for the architecture.
//
//	ckeserve -addr :8329 -parallel 8 -timeout 10m -journal serve.jsonl
//	curl -s localhost:8329/jobs -d '{"sms":4,"cycles":150000,
//	    "kernels":["bp","ks"],"scheme":{"Partition":0,"Limiting":2}}'
//
// The -chaos flag (dev/test only) arms the deterministic fault injector
// so the degradation paths can be exercised against a live server.
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ckeserve: ")
	addr := flag.String("addr", "127.0.0.1:8329", "listen address")
	parallel := flag.Int("parallel", 0, "concurrent simulation slots (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admitted requests that may wait for a slot (0 = 2x slots); excess load is shed with 429")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-attempt wall-clock bound, e.g. 90s or 10m (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Minute, "how long SIGTERM waits for in-flight jobs before giving up")
	phaseTrace := flag.Bool("phasetrace", false, "measure per-phase engine time; /statz reports the breakdown under phase_ns")
	chaosSpec := flag.String("chaos", "", "deterministic fault injection (dev only), e.g. panic=0.5,hang=0.2,journal=0.1,invariant=0.05,corrupt=0.3,seed=42,failures=1")
	stores := cli.AddFlags(flag.CommandLine, "check", "journal", "cache")
	flag.Parse()
	switch {
	case *parallel < 0:
		log.Fatalf("-parallel=%d: want a count >= 0 (0 = GOMAXPROCS)", *parallel)
	case *queue < 0:
		log.Fatalf("-queue=%d: want a count >= 0 (0 = 2x slots)", *queue)
	case *timeout < 0:
		log.Fatalf("-timeout=%s: want a duration >= 0 (0 = none)", *timeout)
	case *drainTimeout <= 0:
		log.Fatalf("-drain-timeout=%s: want a positive duration", *drainTimeout)
	}

	cfg := server.Config{
		Workers:    *parallel,
		QueueDepth: *queue,
		JobTimeout: *timeout,
		Check:      stores.Check,
		PhaseTrace: *phaseTrace,
	}
	var err error
	if cfg.Cache, err = stores.OpenStore(log.Printf); err != nil {
		log.Fatal(err)
	}
	if *chaosSpec != "" {
		ccfg, err := chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		if ccfg.Enabled() {
			cfg.Chaos = chaos.New(ccfg)
			log.Printf("chaos armed: %s (every resilience path is live-fire)", *chaosSpec)
		}
	}
	srv := server.New(cfg)

	ctx, stop := cli.SignalContext()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		log.Printf("signal received; draining in-flight jobs (bound %s)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			log.Fatalf("drain: %v", err)
		}
		if err := <-errc; err != nil {
			log.Fatal(err)
		}
		log.Printf("drained cleanly; result store closed")
	}
}
