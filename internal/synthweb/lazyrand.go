package synthweb

import "math/rand"

// lazySource yields exactly the stream of rand.NewSource(seed), but
// seeds lazily. math/rand's source is an additive lagged-Fibonacci
// generator over 607 registers; its Seed fills every register from
// 1,841 steps of a Lehmer generator, while a site descriptor or landing
// page reads a few dozen values. lazySource's Seed only reduces the
// seed and forgets which registers are filled; register i is filled on
// its first read, from the Lehmer states at steps 21+3i, 22+3i and
// 23+3i, each one multiplication by a precomputed power of the Lehmer
// multiplier.
type lazySource struct {
	tap, feed int
	// x0 is the reduced seed: the Lehmer state at step 0.
	x0 uint64
	// filled marks the registers filled since the last Seed.
	filled [(rngLen + 63) / 64]uint64
	vec    [rngLen]int64
}

const (
	rngLen   = 607 // registers
	rngTap   = 273 // lag of the second register a draw adds
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of math/rand's seeding generator,
	// x ← 48271·x mod (2^31−1).
	lehmerA = 48271
	// lehmerSteps is how many Lehmer steps a full Seed takes: 20
	// discarded, then three per register.
	lehmerSteps = 20 + 3*rngLen
)

var (
	// lehmerPow[k] is lehmerA^k mod (2^31−1), so the Lehmer state k
	// steps after x0 is x0·lehmerPow[k] mod (2^31−1).
	lehmerPow [lehmerSteps + 1]uint64
	// cooked[i] is the constant math/rand xors into register i when it
	// seeds it.
	cooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k <= lehmerSteps; k++ {
		lehmerPow[k] = lehmerPow[k-1] * lehmerA % int32max
	}
	// Recover the cooked constants from math/rand itself, so it stays
	// the one definition of the stream. Each of the first 607 draws of
	// rand.NewSource(1) stores its output in one register, and together
	// they store into every register once: recording the outputs where
	// they are stored gives the state after the 607th draw. Undoing the
	// draws last to first gives the state Seed(1) left, which is
	// lehmerMix(1, i) ^ cooked[i] in register i.
	src := rand.NewSource(1).(rand.Source64)
	s := newLazySource(1)
	for range rngLen {
		s.advance()
		s.vec[s.feed] = int64(src.Uint64())
	}
	// 607 draws bring tap and feed back to where Seed puts them.
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	for i, v := range s.vec {
		cooked[i] = v ^ lehmerMix(1, i)
	}
}

// lehmerMix is register i's uncooked value for the reduced seed x0,
// combined from three consecutive Lehmer states as math/rand's Seed
// combines them.
func lehmerMix(x0 uint64, i int) int64 {
	k := 21 + 3*i
	u := int64(mulMod(x0, lehmerPow[k])) << 40
	u ^= int64(mulMod(x0, lehmerPow[k+1])) << 20
	return u ^ int64(mulMod(x0, lehmerPow[k+2]))
}

// mulMod is a·b mod (2^31−1) for a and b in [1, 2^31−2]. It folds the
// product's high bits onto its low 31 twice, as 2^31 ≡ 1; the result
// cannot be 2^31−1 itself, since the modulus is prime and divides
// neither factor.
func mulMod(a, b uint64) uint64 {
	v := a * b
	v = v&int32max + v>>31
	return v&int32max + v>>31
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed reduces the seed as math/rand does and marks every register
// unfilled. Every seed falls into one of 2^31−2 streams.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// advance moves tap and feed to the registers of the next draw.
func (s *lazySource) advance() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 is the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	s.advance()
	x := s.register(s.feed) + s.register(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is Uint64 without its top bit, as in math/rand.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// register reads register i, filling it first if this seed has not.
func (s *lazySource) register(i int) int64 {
	if s.filled[i>>6]&(1<<(i&63)) == 0 {
		s.filled[i>>6] |= 1 << (i & 63)
		s.vec[i] = lehmerMix(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}
