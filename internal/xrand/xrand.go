// Package xrand provides a small, deterministic xorshift64* pseudo-random
// number generator for the simulator.
//
// The simulator must be fully reproducible: the same configuration and
// seed must produce the same cycle-by-cycle trace. Every stochastic
// component (address generators, arbitration tie-breakers) owns its own
// Source seeded from the run seed and a stable component identifier, so
// adding or removing one component never perturbs the streams of others.
package xrand

// Source is a xorshift64* generator. The zero value is not usable; create
// sources with New.
type Source struct {
	state uint64
}

// New returns a Source seeded from seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator state.
func (s *Source) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	// Scramble the seed so that consecutive small seeds yield unrelated
	// streams.
	seed ^= seed >> 33
	seed *= 0xFF51AFD7ED558CCD
	seed ^= seed >> 33
	seed *= 0xC4CEB9FE1A85EC53
	seed ^= seed >> 33
	if seed == 0 {
		seed = 1
	}
	s.state = seed
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	return s.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Fork derives a new independent Source from this one, labelled with id.
// The parent state is not advanced, so forking is order-independent with
// respect to draws from the parent.
func (s *Source) Fork(id uint64) *Source {
	return New(s.state ^ (id+1)*0x9E3779B97F4A7C15)
}
