package lubm

// rng is a splitmix64 pseudo-random generator. We implement our own rather
// than use math/rand so that generated datasets are bit-for-bit reproducible
// across Go releases — the golden cardinalities and any table regenerated
// with cmd/benchtables (README "Benchmarks") depend on stable cardinalities
// per (scale, seed).
type rng struct {
	state uint64
}

func newRNG(seed int64) *rng {
	return &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n). n must be positive.
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("lubm: intn with non-positive bound")
	}
	return int(r.next() % uint64(n))
}

// between returns a uniform int in [lo, hi] inclusive.
func (r *rng) between(lo, hi int) int {
	return lo + r.intn(hi-lo+1)
}

// sample returns k distinct values from [0, n). If k >= n it returns all of
// [0, n). The result is in ascending order.
func (r *rng) sample(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := make(map[int]bool, k)
	for len(chosen) < k {
		chosen[r.intn(n)] = true
	}
	out := make([]int, 0, k)
	for i := 0; i < n; i++ {
		if chosen[i] {
			out = append(out, i)
		}
	}
	return out
}
