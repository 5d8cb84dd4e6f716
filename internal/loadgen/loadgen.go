// Package loadgen is the open-loop load generator behind cmd/ckeload:
// it fires simulation jobs at a ckeserve (or fleet) endpoint on a
// closed-form arrival schedule and reports latency and goodput per
// offered rate.
//
// Open-loop is the property that makes the reports honest. A closed-loop
// generator (fire, wait for the response, fire again) slows down exactly
// when the server does, so offered load collapses to served load and the
// overload regime is never actually exercised — the "coordinated
// omission" trap. Here every arrival time is computed up front from a
// deterministic PRNG (internal/xrand), each request fires in its own
// goroutine at its scheduled instant whether or not earlier requests
// have answered, and a slow server faces exactly the offered rate it
// claims to handle.
//
// Outcomes are classified against the job's deadline: completed within
// deadline (goodput), shed (429 — the server refused it cheaply),
// deadline-missed (504, or the rare success that arrived past the
// deadline anyway), and transport/server errors. The server must never
// serve a deadline-missed job as a success; LateServed counts exactly
// that and any nonzero value is a bug.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	gcke "repro"
	"repro/internal/overload"
	"repro/internal/server"
	"repro/internal/xrand"
)

// Schedule returns n arrival offsets from stage start, sorted ascending,
// as a pure function of (kind, seed, rate). kind is "fixed" (offset i =
// i/rate) or "poisson" (exponential inter-arrivals with mean 1/rate via
// inverse-CDF over the deterministic PRNG). The schedule is closed-form:
// nothing about the server's behaviour can stretch it.
func Schedule(kind string, seed uint64, rate float64, n int) ([]time.Duration, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive, got %v", rate)
	}
	if n < 0 {
		return nil, fmt.Errorf("loadgen: negative arrival count %d", n)
	}
	out := make([]time.Duration, n)
	switch kind {
	case "fixed", "":
		for i := range out {
			out[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
	case "poisson":
		src := xrand.New(seed)
		at := 0.0 // seconds
		for i := range out {
			// Inverse CDF of Exp(rate); 1-U avoids log(0).
			at += -math.Log(1-src.Float64()) / rate
			out[i] = time.Duration(at * float64(time.Second))
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q (want fixed or poisson)", kind)
	}
	return out, nil
}

// Config describes one load stage.
type Config struct {
	// URL is the target server base (e.g. http://127.0.0.1:8080).
	URL string
	// Rate is the offered arrival rate in jobs/sec.
	Rate float64
	// Duration is the stage length; the stage offers ceil(Rate*Duration)
	// jobs on the schedule and then waits for stragglers.
	Duration time.Duration
	// Arrivals is the arrival process: "poisson" or "fixed".
	Arrivals string
	// Seed drives the arrival schedule and fingerprint variation.
	Seed uint64
	// Deadline is the per-job deadline sent to the server (0 = none).
	Deadline time.Duration
	// Grace pads the client-side deadline classification (default
	// 250ms): a 200 is only counted deadline-missed if it arrived more
	// than Grace past the deadline, so transport skew between the
	// server's clock-side enforcement and the client's stopwatch cannot
	// misclassify boundary jobs.
	Grace time.Duration
	// Job shape: machine size, run lengths, kernel mix (defaults: 2 SMs,
	// 8000 cycles, profile cycles 0 = cycles, bp+ks).
	SMs           int
	Cycles        int64
	ProfileCycles int64
	Kernels       []string
	// Unique is how many distinct job fingerprints the stage cycles
	// through (default 256) so content-addressed caching cannot turn the
	// load test into a cache benchmark.
	Unique int
	// Fresh adds fresh=1 to every request — the server bypasses its
	// result store, making every admitted job a real simulation.
	Fresh bool
	// Client is the HTTP client (nil = a client with no overall timeout;
	// per-request contexts bound each call at Deadline+margin instead).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Grace <= 0 {
		c.Grace = 250 * time.Millisecond
	}
	if c.SMs <= 0 {
		c.SMs = 2
	}
	if c.Cycles <= 0 {
		c.Cycles = 8000
	}
	if len(c.Kernels) == 0 {
		c.Kernels = []string{"bp", "ks"}
	}
	if c.Unique <= 0 {
		c.Unique = 256
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// request builds the i-th job body. Fingerprints cycle through Unique
// static-limit variants — service time is essentially unchanged, but
// each variant is a distinct content address.
func (c Config) request(i int) server.JobRequest {
	limit := 2 + i%c.Unique
	limits := make([]int, len(c.Kernels))
	for k := range limits {
		limits[k] = limit
	}
	req := server.JobRequest{
		SMs:           c.SMs,
		Cycles:        c.Cycles,
		ProfileCycles: c.ProfileCycles,
		Kernels:       c.Kernels,
		Scheme: gcke.Scheme{
			Partition:    gcke.PartitionEven,
			Limiting:     gcke.LimitStatic,
			StaticLimits: limits,
		},
	}
	if c.Deadline > 0 {
		req.Deadline = c.Deadline.String()
	}
	return req
}

// Stage is one offered-rate stage's report.
type Stage struct {
	// Multiplier is the stage's rate as a multiple of the sweep's base
	// rate (1 when the stage was run standalone).
	Multiplier float64 `json:"multiplier"`
	// OfferedRate is the arrival rate in jobs/sec; Offered is how many
	// jobs the schedule actually fired.
	OfferedRate float64 `json:"offered_rate_per_sec"`
	Offered     int     `json:"offered"`
	// Completed counts 2xx responses that arrived within deadline+grace
	// — the goodput numerator.
	Completed int `json:"completed_within_deadline"`
	// Shed counts 429s: load the server refused on arrival, cheaply.
	Shed int `json:"shed"`
	// Missed counts deadline losses: 504s (the server cancelled or
	// refused to serve past-deadline work) plus LateServed.
	Missed int `json:"deadline_missed"`
	// LateServed counts 2xx responses that arrived past deadline+grace.
	// The server's post-completion guard exists to make this zero; any
	// other value is a correctness bug, not an overload symptom.
	LateServed int `json:"late_served"`
	// Errors counts transport failures and non-429/504 error statuses.
	Errors int `json:"errors"`
	// WallSec is the stage's measured wall-clock (schedule + straggler
	// drain); GoodputPerSec is Completed divided by it.
	WallSec       float64 `json:"wall_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// Latency percentiles over ADMITTED jobs (everything except sheds
	// and transport errors): the population whose p99 must stay bounded
	// when load exceeds capacity — sheds answer in microseconds and
	// would flatter the numbers.
	P50Ms float64 `json:"latency_ms_p50"`
	P95Ms float64 `json:"latency_ms_p95"`
	P99Ms float64 `json:"latency_ms_p99"`
}

// sample is one request's raw outcome.
type sample struct {
	status  int
	latency time.Duration
	err     bool
}

// RunStage offers cfg.Rate jobs/sec for cfg.Duration and reports the
// outcome mix. ctx cancellation stops scheduling new arrivals and waits
// for in-flight requests.
func RunStage(ctx context.Context, cfg Config) (Stage, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 {
		return Stage{}, fmt.Errorf("loadgen: stage duration must be positive")
	}
	n := int(math.Ceil(cfg.Rate * cfg.Duration.Seconds()))
	if n < 1 {
		n = 1
	}
	sched, err := Schedule(cfg.Arrivals, cfg.Seed, cfg.Rate, n)
	if err != nil {
		return Stage{}, err
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := json.Marshal(cfg.request(i))
		if err != nil {
			return Stage{}, fmt.Errorf("loadgen: marshaling job %d: %w", i, err)
		}
		bodies[i] = b
	}
	url := strings.TrimRight(cfg.URL, "/") + "/jobs"
	if cfg.Fresh {
		url += "?fresh=1"
	}
	// Per-request bound: the deadline (or 30s) plus slack — a hung
	// server must not wedge the generator, but an honest 504 at the
	// deadline must not be misread as a transport error.
	reqBound := 30 * time.Second
	if cfg.Deadline > 0 {
		reqBound = cfg.Deadline + 10*time.Second
	}

	samples := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		// Open loop: sleep until the i-th scheduled instant. If the
		// goroutine scheduler has fallen behind, fire immediately — the
		// schedule never stretches to match the server.
		if d := time.Until(start.Add(sched[i])); d > 0 {
			select {
			case <-ctx.Done():
				samples = samples[:i]
				n = i
			case <-time.After(d):
			}
			if ctx.Err() != nil {
				break
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(context.Background(), reqBound)
			defer cancel()
			t0 := time.Now()
			req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(bodies[i]))
			if err != nil {
				samples[i] = sample{err: true}
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := cfg.Client.Do(req)
			if err != nil {
				samples[i] = sample{err: true, latency: time.Since(t0)}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			samples[i] = sample{status: resp.StatusCode, latency: time.Since(t0)}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	st := Stage{
		OfferedRate: cfg.Rate,
		Offered:     n,
		WallSec:     wall.Seconds(),
	}
	var admitted []time.Duration
	for _, s := range samples[:n] {
		switch {
		case s.err:
			st.Errors++
		case s.status == http.StatusTooManyRequests:
			st.Shed++
		case s.status == http.StatusGatewayTimeout:
			st.Missed++
			admitted = append(admitted, s.latency)
		case s.status >= 200 && s.status < 300:
			if cfg.Deadline > 0 && s.latency > cfg.Deadline+cfg.Grace {
				st.LateServed++
				st.Missed++
			} else {
				st.Completed++
			}
			admitted = append(admitted, s.latency)
		default:
			st.Errors++
			admitted = append(admitted, s.latency)
		}
	}
	if wall > 0 {
		st.GoodputPerSec = float64(st.Completed) / wall.Seconds()
	}
	st.P50Ms = float64(overload.Percentile(admitted, 0.50)) / 1e6
	st.P95Ms = float64(overload.Percentile(admitted, 0.95)) / 1e6
	st.P99Ms = float64(overload.Percentile(admitted, 0.99)) / 1e6
	return st, nil
}

// Calibrate estimates the server's per-slot service rate by running k
// jobs back-to-back (closed loop, concurrency 1) and returning
// completions per second. It deliberately underestimates a multi-worker
// server's capacity — a conservative 1x base makes the sweep's high
// multipliers genuinely super-capacity.
func Calibrate(ctx context.Context, cfg Config, k int) (float64, error) {
	cfg = cfg.withDefaults()
	if k < 1 {
		k = 3
	}
	url := strings.TrimRight(cfg.URL, "/") + "/jobs"
	if cfg.Fresh {
		url += "?fresh=1"
	}
	start := time.Now()
	for i := 0; i < k; i++ {
		body, err := json.Marshal(cfg.request(i))
		if err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return 0, fmt.Errorf("loadgen: calibration job %d: %w", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("loadgen: calibration job %d: status %d", i, resp.StatusCode)
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("loadgen: calibration measured no elapsed time")
	}
	return float64(k) / elapsed.Seconds(), nil
}

// Report is the rate-sweep output (what ckeload -out writes).
type Report struct {
	URL         string          `json:"url"`
	Arrivals    string          `json:"arrivals"`
	Seed        uint64          `json:"seed"`
	DeadlineMs  float64         `json:"deadline_ms,omitempty"`
	BaseRate    float64         `json:"base_rate_per_sec"`
	Calibrated  bool            `json:"calibrated"`
	Stages      []Stage         `json:"stages"`
	ServerStatz json.RawMessage `json:"server_statz,omitempty"`
}

// GoodputRatio returns goodput(multiplier)/goodput(1) — the graceful-
// degradation headline. Zero when either stage is missing or the 1x
// stage completed nothing.
func (r *Report) GoodputRatio(multiplier float64) float64 {
	var base, at float64
	for _, s := range r.Stages {
		if s.Multiplier == 1 {
			base = s.GoodputPerSec
		}
		if s.Multiplier == multiplier {
			at = s.GoodputPerSec
		}
	}
	if base <= 0 {
		return 0
	}
	return at / base
}

// Sweep runs one stage per multiplier (multiplier x base rate), pausing
// settle between stages so one stage's stragglers and queue residue
// cannot bleed into the next stage's numbers.
func Sweep(ctx context.Context, cfg Config, base float64, multipliers []float64, settle time.Duration, logf func(string, ...any)) (Report, error) {
	cfg = cfg.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := Report{
		URL:      cfg.URL,
		Arrivals: cfg.Arrivals,
		Seed:     cfg.Seed,
		BaseRate: base,
	}
	if cfg.Arrivals == "" {
		rep.Arrivals = "fixed"
	}
	if cfg.Deadline > 0 {
		rep.DeadlineMs = float64(cfg.Deadline) / 1e6
	}
	for i, m := range multipliers {
		if m <= 0 {
			return rep, fmt.Errorf("loadgen: multiplier %v must be positive", m)
		}
		sc := cfg
		sc.Rate = base * m
		// Decorrelate stages deterministically: same seed lineage, new
		// stream per stage.
		sc.Seed = cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		logf("loadgen: stage %d/%d: %.2f jobs/sec (%gx) for %s", i+1, len(multipliers), sc.Rate, m, sc.Duration)
		st, err := RunStage(ctx, sc)
		if err != nil {
			return rep, err
		}
		st.Multiplier = m
		rep.Stages = append(rep.Stages, st)
		logf("loadgen: stage %d/%d done: offered %d, completed %d, shed %d, missed %d, errors %d, goodput %.2f/s, p99 %.0fms",
			i+1, len(multipliers), st.Offered, st.Completed, st.Shed, st.Missed, st.Errors, st.GoodputPerSec, st.P99Ms)
		if settle > 0 && i < len(multipliers)-1 {
			select {
			case <-ctx.Done():
				return rep, ctx.Err()
			case <-time.After(settle):
			}
		}
	}
	return rep, nil
}

// FetchStatz snapshots the target's /statz for embedding in the report.
func FetchStatz(ctx context.Context, client *http.Client, baseURL string) (json.RawMessage, error) {
	if client == nil {
		client = &http.Client{}
	}
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, strings.TrimRight(baseURL, "/")+"/statz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: statz answered %d", resp.StatusCode)
	}
	return json.RawMessage(body), nil
}

// ParseMultipliers parses a comma-separated multiplier list ("1,5").
func ParseMultipliers(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var m float64
		if _, err := fmt.Sscanf(part, "%g", &m); err != nil || m <= 0 {
			return nil, fmt.Errorf("loadgen: bad multiplier %q", part)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: no multipliers in %q", s)
	}
	sort.Float64s(out)
	return out, nil
}
