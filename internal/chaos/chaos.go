// Package chaos is a deterministic fault injector for the service, sweep
// and fleet pipelines: it forces worker panics, artificial hangs,
// result-store write errors, invariant-watchdog violations and network
// faults (connection drops, added latency, synthetic 5xx) so every
// degradation path (transient answer, deadline kill, permanent failure,
// store rollback, fleet requeue/hedge/eject) has a
// failing-then-recovering test instead of an untested error branch. A
// panic or a hang makes the server answer a transient 5xx, which the
// fleet coordinator requeues; an invariant violation is a permanent 500.
//
// Determinism is the point. Whether a job is faulted, and how, is a pure
// function of (seed, job fingerprint): the same seed replays the same
// fault schedule across runs and across processes, so a chaos test that
// fails is reproducible by its seed alone. Each selected key injects a
// bounded number of faults (Config.Failures) and then behaves normally —
// the "fails, then recovers" shape the resilience layer must survive.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sm"
	"repro/internal/xrand"
)

// Kind names one injected fault class.
type Kind string

const (
	// KindPanic makes the job's worker goroutine panic (exercises
	// runner panic isolation, the server's transient answer and the
	// coordinator's requeue).
	KindPanic Kind = "panic"
	// KindHang blocks the job until its deadline context expires
	// (exercises per-job deadline kill and the coordinator's requeue).
	KindHang Kind = "hang"
	// KindJournal fails the durable result store's append of the job's
	// result — the -journal file (exercises the append rollback, the
	// typed write error and the job failing with it).
	KindJournal Kind = "journal"
	// KindInvariant fails the job with a deterministic
	// *sm.InvariantError (exercises the permanent classification: the
	// service answers 500 and nothing re-runs the job).
	KindInvariant Kind = "invariant"
	// KindNetDrop fails the HTTP round trip with a connection error
	// before the request reaches the worker (exercises the fleet
	// coordinator's requeue-on-connection-failure path; from the
	// coordinator's view it is indistinguishable from a partition or a
	// crashed worker).
	KindNetDrop Kind = "netdrop"
	// KindNetDelay adds latency to the round trip (exercises straggler
	// hedging and lease expiry without a real slow network).
	KindNetDelay Kind = "netdelay"
	// KindNet5xx answers the request with a synthetic 503 without
	// reaching the worker (exercises requeue-on-5xx; the worker never
	// executes, so the retried job must still produce the one true
	// result).
	KindNet5xx Kind = "net5xx"
	// KindCorrupt silently flips bytes in the job's result AFTER its
	// digest is computed — the silently-wrong-worker model. The damage
	// is self-consistent at the source (the digest covers the corrupt
	// bytes), so per-hop digest verification cannot catch it; only an
	// independent re-execution (the audit path) can.
	KindCorrupt Kind = "corrupt"
	// KindNone means the key was not selected for any fault.
	KindNone Kind = "none"
)

// Config selects which fraction of job keys each fault class claims.
// The probabilities partition [0,1): a key draws one uniform variate and
// the first class whose cumulative range contains it wins, so the
// classes are mutually exclusive per key. Probabilities summing past 1
// are effectively truncated by that order.
type Config struct {
	Seed          uint64
	PanicProb     float64
	HangProb      float64
	JournalProb   float64
	InvariantProb float64
	NetDropProb   float64
	NetDelayProb  float64
	Net5xxProb    float64
	CorruptProb   float64
	// Hang is how long a hang fault blocks before giving up and
	// proceeding (it normally loses to the job deadline; the bound keeps
	// an undeadlined dev run from blocking forever). 0 means 30s.
	Hang time.Duration
	// NetDelay is how much latency a netdelay fault adds to the round
	// trip. 0 means 1s.
	NetDelay time.Duration
	// Failures is how many faults each selected key injects before it is
	// allowed to succeed (<=0 means 1). The per-key budget is in-memory:
	// a restarted process injects afresh.
	Failures int
}

// Enabled reports whether any fault class has a non-zero probability.
func (c Config) Enabled() bool {
	return c.PanicProb > 0 || c.HangProb > 0 || c.JournalProb > 0 ||
		c.InvariantProb > 0 ||
		c.NetDropProb > 0 || c.NetDelayProb > 0 || c.Net5xxProb > 0 ||
		c.CorruptProb > 0
}

// Injector injects faults per Config. It is safe for concurrent use.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	injected map[string]int // key -> faults already injected
	counts   map[Kind]int   // faults injected so far, by kind
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.Hang <= 0 {
		cfg.Hang = 30 * time.Second
	}
	if cfg.NetDelay <= 0 {
		cfg.NetDelay = time.Second
	}
	if cfg.Failures <= 0 {
		cfg.Failures = 1
	}
	return &Injector{
		cfg:      cfg,
		injected: make(map[string]int),
		counts:   make(map[Kind]int),
	}
}

// Plan returns the fault class key is selected for — a pure function of
// the injector's seed and the key, independent of call order.
func (inj *Injector) Plan(key string) Kind {
	h := fnv.New64a()
	h.Write([]byte(key))
	r := xrand.New(inj.cfg.Seed ^ h.Sum64()).Float64()
	for _, c := range []struct {
		p float64
		k Kind
	}{
		{inj.cfg.PanicProb, KindPanic},
		{inj.cfg.HangProb, KindHang},
		{inj.cfg.JournalProb, KindJournal},
		{inj.cfg.InvariantProb, KindInvariant},
		{inj.cfg.NetDropProb, KindNetDrop},
		{inj.cfg.NetDelayProb, KindNetDelay},
		{inj.cfg.Net5xxProb, KindNet5xx},
		{inj.cfg.CorruptProb, KindCorrupt},
	} {
		if r < c.p {
			return c.k
		}
		r -= c.p
	}
	return KindNone
}

// spend consumes one unit of key's fault budget, reporting whether a
// fault of kind should be injected now.
func (inj *Injector) spend(key string, kind Kind) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.injected[key] >= inj.cfg.Failures {
		return false
	}
	inj.injected[key]++
	inj.counts[kind]++
	return true
}

// Counts returns how many faults have been injected so far, by kind.
func (inj *Injector) Counts() map[Kind]int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[Kind]int, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

// JobFault is the runner.Runner.Fault seam: called inside the worker's
// recovery scope before a job executes. Depending on the key's plan it
// panics (recovered into a *runner.PanicError), blocks until ctx
// expires (surfacing the deadline), returns a deterministic
// *sm.InvariantError, or does nothing.
func (inj *Injector) JobFault(ctx context.Context, index int, key string) error {
	switch inj.Plan(key) {
	case KindPanic:
		if inj.spend(key, KindPanic) {
			panic(fmt.Sprintf("chaos: injected panic for job %d (%s)", index, key))
		}
	case KindHang:
		if inj.spend(key, KindHang) {
			t := time.NewTimer(inj.cfg.Hang)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return fmt.Errorf("chaos: injected hang for job %d (%s) interrupted: %w",
					index, key, ctx.Err())
			case <-t.C:
				// Hang bound elapsed without a deadline; let the job run.
			}
		}
	case KindInvariant:
		if inj.spend(key, KindInvariant) {
			return &sm.InvariantError{
				Cycle: 0, SM: 0, Kernel: 0,
				Rule:   "chaos-injected",
				Detail: fmt.Sprintf("injected invariant violation for job %d (%s)", index, key),
			}
		}
	}
	return nil
}

// JournalFault is the resultcache.Store.FaultHook seam: it fails the
// write or sync step of a durable store's append for keys planned
// KindJournal.
func (inj *Injector) JournalFault(op, key string) error {
	if inj.Plan(key) != KindJournal {
		return nil
	}
	if !inj.spend(key, KindJournal) {
		return nil
	}
	return fmt.Errorf("chaos: injected journal %s error for %s", op, key)
}

// ResultFault is the worker's silent-corruption seam: it reports whether
// the finished result for key should have its bytes damaged before the
// response (and its digest) are built. The caller does the mutation so
// chaos stays format-agnostic. A corrupt worker is self-consistent —
// its digest covers the damaged bytes — which is exactly what the audit
// layer exists to catch.
func (inj *Injector) ResultFault(key string) bool {
	if inj.Plan(key) != KindCorrupt {
		return false
	}
	return inj.spend(key, KindCorrupt)
}

// JobKeyHeader carries the job fingerprint on fleet HTTP requests so the
// network fault transport can plan per (seed, fingerprint) — the same
// determinism contract as every other fault class.
const JobKeyHeader = "X-Cke-Job-Key"

// Transport wraps base (nil = http.DefaultTransport) with the network
// fault classes: requests carrying a JobKeyHeader whose plan is a net
// fault are dropped (connection error), delayed, or answered with a
// synthetic 503 without reaching the worker. Requests without the header
// (health probes, journal dumps) pass through untouched — network chaos
// targets work, not the control plane, so the failure matrix stays
// attributable per job.
func (inj *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &netTransport{inj: inj, base: base}
}

type netTransport struct {
	inj  *Injector
	base http.RoundTripper
}

func (t *netTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Header.Get(JobKeyHeader)
	if key == "" {
		return t.base.RoundTrip(req)
	}
	switch t.inj.Plan(key) {
	case KindNetDrop:
		if t.inj.spend(key, KindNetDrop) {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, fmt.Errorf("chaos: injected connection drop for %s", key)
		}
	case KindNetDelay:
		if t.inj.spend(key, KindNetDelay) {
			timer := time.NewTimer(t.inj.cfg.NetDelay)
			defer timer.Stop()
			select {
			case <-req.Context().Done():
				if req.Body != nil {
					req.Body.Close()
				}
				return nil, fmt.Errorf("chaos: injected delay for %s interrupted: %w",
					key, req.Context().Err())
			case <-timer.C:
			}
		}
	case KindNet5xx:
		if t.inj.spend(key, KindNet5xx) {
			if req.Body != nil {
				req.Body.Close()
			}
			body := fmt.Sprintf("chaos: injected 5xx for %s", key)
			return &http.Response{
				Status:        "503 Service Unavailable",
				StatusCode:    http.StatusServiceUnavailable,
				Proto:         "HTTP/1.1",
				ProtoMajor:    1,
				ProtoMinor:    1,
				Header:        http.Header{"Content-Type": []string{"text/plain"}},
				Body:          io.NopCloser(strings.NewReader(body)),
				ContentLength: int64(len(body)),
				Request:       req,
			}, nil
		}
	}
	return t.base.RoundTrip(req)
}

// Parse decodes a -chaos flag spec: comma-separated key=value pairs with
// keys panic, hang, journal, invariant, netdrop, netdelay, net5xx,
// corrupt (probabilities in [0,1]),
// seed (uint64), failures (int), hangdur and netdelaydur (Go durations).
// Example:
//
//	panic=0.5,hang=0.2,seed=42,failures=1,hangdur=2s
//
// An empty spec yields a disabled Config.
func Parse(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: bad field %q: want key=value", field)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "panic", "hang", "journal", "invariant", "netdrop", "netdelay", "net5xx", "corrupt":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("chaos: %s=%q: want a probability in [0,1]", k, v)
			}
			switch k {
			case "panic":
				cfg.PanicProb = p
			case "hang":
				cfg.HangProb = p
			case "journal":
				cfg.JournalProb = p
			case "invariant":
				cfg.InvariantProb = p
			case "netdrop":
				cfg.NetDropProb = p
			case "netdelay":
				cfg.NetDelayProb = p
			case "net5xx":
				cfg.Net5xxProb = p
			case "corrupt":
				cfg.CorruptProb = p
			}
		case "seed":
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("chaos: seed=%q: want a uint64", v)
			}
			cfg.Seed = s
		case "failures":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("chaos: failures=%q: want a positive integer", v)
			}
			cfg.Failures = n
		case "hangdur":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return Config{}, fmt.Errorf("chaos: hangdur=%q: want a positive duration", v)
			}
			cfg.Hang = d
		case "netdelaydur":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return Config{}, fmt.Errorf("chaos: netdelaydur=%q: want a positive duration", v)
			}
			cfg.NetDelay = d
		default:
			return Config{}, fmt.Errorf("chaos: unknown key %q (want panic, hang, journal, invariant, netdrop, netdelay, net5xx, corrupt, seed, failures, hangdur or netdelaydur)", k)
		}
	}
	return cfg, nil
}
