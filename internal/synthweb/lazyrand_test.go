package synthweb

import (
	"math"
	"math/rand"
	"testing"
)

// lazyDraws reads past two wraps of the 607-register buffer, so every
// register is read both as filled by the seed and as written by a draw.
const lazyDraws = 1300

// matchStream fails unless got yields rand.NewSource(seed)'s first
// lazyDraws values.
func matchStream(t *testing.T, got *lazySource, seed int64) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for n := 0; n < lazyDraws; n++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: lazy %#x, math/rand %#x", seed, n, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand: the lazy source is math/rand's source
// bit for bit, at the seeds its reduction treats specially, at the
// seeds Generate and RenderHTML derive, and after a reseed.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		m - 1, m, -m, 2 * m, -2 * m, 3 * m, m + 1, -(m + 1),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	for rank := 1; rank <= 1000; rank++ {
		for _, stream := range []uint64{0x1, 0x2, 0x7} {
			seeds = append(seeds, siteSeed(1, rank, stream))
		}
	}
	for _, seed := range seeds {
		matchStream(t, newLazySource(seed), seed)
	}

	// Reseeding after use, including mid-buffer and to the same seed,
	// forgets every register the previous stream filled or wrote.
	s := newLazySource(7)
	for _, seed := range []int64{7, 8, 0, 7, -1} {
		for range 400 {
			s.Uint64()
		}
		s.Seed(seed)
		matchStream(t, s, seed)
	}
}
