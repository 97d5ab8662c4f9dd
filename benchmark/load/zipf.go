package load

import "math"

// Rand is a splitmix64 generator: tiny, seedable, and the same on every
// Go version (math/rand's stream is not part of its contract).
type Rand struct{ s uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next value.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a value in [0, n).
func (r *Rand) Intn(n uint64) uint64 { return r.Uint64() % n }

// Zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta — the YCSB
// generator (Gray et al., "Quickly generating billion-record synthetic
// databases"). Rank 0 is the hottest.
type Zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
}

// NewZipf precomputes the constants for n items; O(n) once.
func NewZipf(n uint64, theta float64) *Zipf {
	var zetan float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &Zipf{
		n: n, theta: theta, zetan: zetan,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  1 + math.Pow(0.5, theta),
	}
}

// Next draws a rank.
func (z *Zipf) Next(r *Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
