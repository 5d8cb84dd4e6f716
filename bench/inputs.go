package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	gcke "repro"
	"repro/internal/kern"
	"repro/internal/xrand"
)

// runCtx is the state of one workload run.
type runCtx struct {
	options
	name string
	dir  string // private scratch directory, removed when the run ends
	sz   sizes
	rec  *recorder
	tr   *tracer

	attempted, failed int
	inputs            any
	simDigest         string
	checks            []check
	notes             []string
}

func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	ck := check{Name: name, OK: ok}
	if !ok {
		ck.Detail = fmt.Sprintf(format, args...)
	}
	c.checks = append(c.checks, ck)
}

func (c *runCtx) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// sizes are the run lengths. The full sizes keep one engine round near
// three seconds and one cold sweep under six on the 2-core reference
// host, so that fifteen seconds hold five rounds or three sweeps; the
// smoke sizes are what go test ./bench pays.
type sizes struct {
	engineCycles, engineProfile int64 // per RunWorkload / isolated profile, 16 SMs
	sweepCycles, sweepProfile   int64 // per job / isolated profile, 4 SMs
	serveCycles, serveProfile   int64 // per POST /jobs, 2 SMs
	micro                       int   // iterations of one standalone layer drive
	storeOps                    int   // fsynced writes of one store drive
}

func sizesFor(o options) sizes {
	if o.Smoke {
		return sizes{1000, 600, 1500, 500, 4000, 2000, 2000, 10}
	}
	return sizes{12000, 4000, 10000, 3300, 20000, 6000, 40000, 100}
}

type pair [2]string

// deck deals the kernels of one Table 2 class in an order drawn from
// --seed. A kernel comes up again only after every other kernel of its
// class has, so each draw covers the classes as evenly as its size
// allows. Host time per simulated cycle differs by a quarter between
// pairs of one class; with independent draws ten seeds would disagree by
// more than a change is allowed to cost (README.md, "Seed discipline").
type deck struct {
	rng  *xrand.Source
	all  []string
	left []string
}

func newDeck(rng *xrand.Source, class kern.Class) *deck {
	d := &deck{rng: rng}
	for _, k := range kern.Benchmarks() {
		if k.Class == class {
			d.all = append(d.all, k.Name)
		}
	}
	return d
}

// deal returns the next kernel, skipping not: a pair never runs a kernel
// beside itself.
func (d *deck) deal(not string) string {
	if len(d.left) == 0 {
		d.left = append(d.left, d.all...)
		shuffle(d.rng, d.left)
	}
	i := 0
	if d.left[0] == not {
		i = 1 // only right after a reshuffle, so there is a second card
	}
	name := d.left[i]
	d.left = append(d.left[:i], d.left[i+1:]...)
	return name
}

// drawPairs deals cc C+C pairs, then mm M+M pairs, then cm C+M pairs.
func drawPairs(seed uint64, cc, mm, cm int) []pair {
	rng := xrand.New(seed)
	c, m := newDeck(rng.Fork(0), kern.Compute), newDeck(rng.Fork(1), kern.Memory)
	var out []pair
	two := func(a, b *deck) {
		first := a.deal("")
		out = append(out, pair{first, b.deal(first)})
	}
	for i := 0; i < cc; i++ {
		two(c, c)
	}
	for i := 0; i < mm; i++ {
		two(m, m)
	}
	for i := 0; i < cm; i++ {
		two(c, m)
	}
	return out
}

func shuffle[T any](rng *xrand.Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func kernelsOf(p pair) ([]gcke.Kernel, error) {
	out := make([]gcke.Kernel, len(p))
	for i, name := range p {
		k, err := gcke.Benchmark(name)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// distinctKernels lists the kernels of pairs once each, in first-seen
// order.
func distinctKernels(pairs []pair) ([]gcke.Kernel, error) {
	seen := make(map[string]bool)
	var out []gcke.Kernel
	for _, p := range pairs {
		ks, err := kernelsOf(p)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			if !seen[k.Name] {
				seen[k.Name] = true
				out = append(out, k)
			}
		}
	}
	return out, nil
}

// digestOf is the sim_digest: sha256 over the marshalled results. A
// change that only makes the simulator faster leaves it unchanged.
func digestOf(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// timeSetup runs setup at least three times and for at least a second
// (at most two hundred times) and records the median as setup_s; teardown
// undoes every repetition but the last, whose state the timed region
// uses. A cheap set-up is repeated more often because its timing is
// relatively noisier.
func (c *runCtx) timeSetup(setup func() error, teardown func() error) error {
	var xs []float64
	var total time.Duration
	for {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		xs = append(xs, d.Seconds())
		total += d
		if len(xs) >= 200 || (len(xs) >= 3 && total >= time.Second) || (c.Smoke && len(xs) >= 2) {
			break
		}
		if err := teardown(); err != nil {
			return fmt.Errorf("set-up teardown: %w", err)
		}
	}
	c.rec.samples("setup_s", xs)
	return nil
}
