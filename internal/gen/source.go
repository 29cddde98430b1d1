package gen

// source is math/rand's additive lagged Fibonacci generator (the unexported
// rngSource behind rand.NewSource) with the same stream for every seed, but
// O(1) seeding.
//
// rngSource.Seed fills state word i from iterates 21+3i, 22+3i and 23+3i
// of the Lehmer generator x ← 48271·x mod (2³¹−1), started at the
// normalised seed: 1,841 serial steps per seed. Its Schrage-method step is
// exact, so iterate n is x₀·48271ⁿ mod (2³¹−1), and any one word costs
// three multiplies against a power table built once at package init. A
// draw reads only two state words, so words are computed when first
// touched: Seed is O(1) and so is every draw. A word is current when its
// stamp equals gen, which Seed bumps.
//
// The generator's *rand.Rand values wrap a source, so Intn, Shuffle and
// the other methods stay math/rand's own code over an identical stream.
type source struct {
	tap, feed int
	// x0 is the normalised seed: iterate 0 of the Lehmer generator.
	x0    uint64
	gen   uint32
	stamp [rngLen]uint32
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedA is the Lehmer multiplier of math/rand's seedrand.
	seedA = 48271
)

// seedPowers[n] is seedA^n mod (2³¹−1), for every iterate rngSource.Seed
// reads (the last is 23+3·606).
var seedPowers = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * seedA % int32max
	}
	return p
}()

// newSource returns a source seeded to the state rand.NewSource(seed) has.
func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed puts the source in the state rngSource.Seed(seed) leaves it in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// The stamps wrapped: clear them so no word from 2³² seeds ago
		// passes as current.
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// word returns state word i, computing its seeded value on first touch.
func (s *source) word(i int) int64 {
	if s.stamp[i] != s.gen {
		n := 21 + 3*i
		u := int64(s.x0*seedPowers[n]%int32max) << 40
		u ^= int64(s.x0*seedPowers[n+1]%int32max) << 20
		u ^= int64(s.x0 * seedPowers[n+2] % int32max)
		s.vec[i] = u ^ rngCooked[i]
		s.stamp[i] = s.gen
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
