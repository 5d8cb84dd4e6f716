// Command ckeserve runs the simulator as a long-lived HTTP job service:
// clients POST simulation jobs and the service executes them on the
// concurrent runner pool with bounded admission, retry with
// deterministic backoff, a per-fingerprint circuit breaker, journal
// checkpointing, and SIGTERM drain. See internal/server for the
// degradation model and DESIGN.md §10 for the architecture.
//
//	ckeserve -addr :8329 -parallel 8 -timeout 10m -journal serve.ckpt
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

	"repro/internal/backoff"
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
	retries := flag.Int("retries", 2, "retries per transiently-failed job (panic, deadline)")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-attempt wall-clock bound, e.g. 90s or 10m (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Minute, "how long SIGTERM waits for in-flight jobs before giving up")
	journalPath := flag.String("journal", "", "checkpoint journal path; completed jobs are replayed instead of re-simulated (empty = disabled)")
	cacheOn := flag.Bool("cache", false, "serve repeated job fingerprints from the content-addressed result cache")
	cacheDir := flag.String("cache-dir", "", "persist the result cache to <dir>/results.jsonl across restarts (implies -cache)")
	check := flag.Bool("check", false, "enable the per-cycle simulator invariant watchdog")
	phaseTrace := flag.Bool("phasetrace", false, "measure per-phase engine time; /statz reports the breakdown under phase_ns")
	retryBudget := flag.Float64("retry-budget", 0.1, "retry tokens earned per completed job (retries beyond the budget fail fast)")
	retryBurst := flag.Float64("retry-burst", 10, "retry-budget token cap (also the initial balance)")
	breakerN := flag.Int("breaker-threshold", 3, "invariant violations per job fingerprint before its circuit opens")
	breakerCool := flag.Duration("breaker-cooldown", time.Minute, "how long an open circuit sheds before allowing a probe")
	chaosSpec := flag.String("chaos", "", "deterministic fault injection (dev only), e.g. panic=0.5,hang=0.2,journal=0.1,invariant=0.05,corrupt=0.3,seed=42,failures=1")
	workerMode := flag.Bool("worker", false, "fleet-worker mode: expose /journalz so a fleet coordinator can resume from this worker's journal")
	ckptDir := flag.String("ckpt-dir", "", "persist mid-job engine checkpoints to <dir>; a killed job resumes from its last checkpoint (empty = disabled)")
	ckptEvery := flag.Int64("ckpt-every", 0, "checkpoint interval in simulated cycles (0 = 50000 when -ckpt-dir is set)")
	flag.Parse()

	cfg := server.Config{
		Workers:          *parallel,
		QueueDepth:       *queue,
		JobTimeout:       *timeout,
		MaxRetries:       *retries,
		Retry:            backoff.Default(),
		RetryBudgetRatio: *retryBudget,
		RetryBudgetBurst: *retryBurst,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCool,
		Check:            *check,
		PhaseTrace:       *phaseTrace,
		Worker:           *workerMode,
	}
	stores := &cli.Robustness{JournalPath: *journalPath, Cache: *cacheOn, CacheDir: *cacheDir,
		CkptDir: *ckptDir, CkptEvery: *ckptEvery}
	var err error
	if cfg.Cache, err = stores.OpenCache(log.Printf); err != nil {
		log.Fatal(err)
	}
	if cfg.Checkpoints, err = stores.OpenCheckpoints(log.Printf); err != nil {
		log.Fatal(err)
	}
	cfg.CheckpointEvery = stores.CkptEvery
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
	if cfg.Journal, err = stores.OpenJournal(log.Printf); err != nil {
		log.Fatal(err)
	}
	srv := server.New(cfg)

	ctx, stop := cli.SignalContext()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	if *workerMode {
		log.Printf("listening on %s (fleet worker: /journalz exposed)", *addr)
	} else {
		log.Printf("listening on %s", *addr)
	}

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
		log.Printf("drained cleanly; journal flushed")
	}
}
