package gen

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many draws each exactness check compares: past two
// wraps of the 607-word ring, so every word is read both as seeded and as
// rewritten.
const sourceDraws = 2000

// pinnedSeeds are the seeds rngSource.Seed normalises specially (zero, the
// modulus and its multiples, negatives, the int64 extremes) plus the
// replacement seed it substitutes for zero.
var pinnedSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
	math.MinInt64, math.MaxInt64,
}

// testSeeds returns pinnedSeeds followed by n seeds drawn over the whole
// int64 range.
func testSeeds(n int) []int64 {
	r := rand.New(rand.NewSource(20250417))
	seeds := append([]int64(nil), pinnedSeeds...)
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// matchDraws fails unless got's next n draws equal want's.
func matchDraws(t *testing.T, tag string, got *source, want rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: draw %d is %#x, math/rand gives %#x", tag, i, g, w)
		}
	}
}

func mathRandSource(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

// TestSourceMatchesMathRand pins the generator's source to math/rand's
// rngSource: the same stream for every seed, after a fresh seed, after a
// reseed mid-stream, after the stamp generation wraps, and through the
// *rand.Rand methods gen and scenario draw with.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := testSeeds(256)
	for _, seed := range seeds {
		matchDraws(t, "fresh", newSource(seed), mathRandSource(seed), sourceDraws)
	}

	t.Run("reseed", func(t *testing.T) {
		got := newSource(seeds[len(seeds)-1])
		for i, seed := range seeds {
			// Leave the stream partway through a ring pass (some words
			// rewritten, some still seeded) before reseeding.
			for k := 0; k < 37*i%(2*rngLen); k++ {
				got.Uint64()
			}
			got.Seed(seed)
			matchDraws(t, "reseeded", got, mathRandSource(seed), sourceDraws)
		}
	})

	t.Run("stamp-wrap", func(t *testing.T) {
		got := newSource(7)
		matchDraws(t, "before wrap", got, mathRandSource(7), rngLen/2)
		got.gen = math.MaxUint32
		got.Seed(7)
		if got.gen != 1 {
			t.Fatalf("generation after wrap is %d, want 1", got.gen)
		}
		matchDraws(t, "after wrap", got, mathRandSource(7), sourceDraws)
	})

	t.Run("rand-methods", func(t *testing.T) {
		for _, seed := range seeds[:len(pinnedSeeds)+16] {
			got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
			a, b := make([]int, 50), make([]int, 50)
			for i := range a {
				a[i], b[i] = i, i
			}
			for round := 0; round < 40; round++ {
				if g, w := got.Intn(1+round*round), want.Intn(1+round*round); g != w {
					t.Fatalf("seed %d round %d: Intn %d, math/rand %d", seed, round, g, w)
				}
				if g, w := got.Intn(1<<40+round), want.Intn(1<<40+round); g != w {
					t.Fatalf("seed %d round %d: Intn(large) %d, math/rand %d", seed, round, g, w)
				}
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d round %d: Int63 %d, math/rand %d", seed, round, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d round %d: Float64 %v, math/rand %v", seed, round, g, w)
				}
				got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("seed %d round %d: Shuffle differs at %d", seed, round, i)
					}
				}
				if round == 20 {
					got.Seed(seed ^ 0x5eed)
					want.Seed(seed ^ 0x5eed)
				}
			}
		}
	})
}

// FuzzSourceMatchesMathRand extends the exactness pin to arbitrary seeds:
// the first n draws (up to five ring passes) must equal rand.NewSource's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range pinnedSeeds {
		f.Add(seed, uint16(sourceDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		matchDraws(t, "fuzz", newSource(seed), mathRandSource(seed), int(n)%(5*rngLen+1))
	})
}

// BenchmarkReseed times one reseed plus the five draws a campaign averages
// per reseed, against the same work on a math/rand source.
func BenchmarkReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source64
	}{
		{"gen", newSource(1)},
		{"math-rand", mathRandSource(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := int64(0); b.Loop(); i++ {
				c.src.Seed(i)
				for k := 0; k < 5; k++ {
					c.src.Uint64()
				}
			}
		})
	}
}
