package set

import (
	"fmt"
	"math/rand"
	"testing"
)

// genSorted produces n sorted distinct values spread over a domain chosen
// so that density = n/domain.
func genSorted(rng *rand.Rand, n int, density float64) []uint32 {
	domain := int(float64(n) / density)
	seen := map[uint32]bool{}
	vals := make([]uint32, 0, n)
	for len(vals) < n {
		v := uint32(rng.Intn(domain))
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	return dedupSorted(sortedCopy(vals))
}

func sortedCopy(v []uint32) []uint32 {
	cp := append([]uint32(nil), v...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp
}

// BenchmarkIntersectDensitySweep demonstrates the rationale for the 1/256
// layout rule (§II-A2): bitset-vs-array intersection cost as density
// changes. At high densities the bitset word-AND wins by an order of
// magnitude; at low densities the array merge wins.
func BenchmarkIntersectDensitySweep(b *testing.B) {
	for _, density := range []float64{0.5, 0.02, 1.0 / 256, 0.001} {
		rng := rand.New(rand.NewSource(1))
		a := genSorted(rng, 4096, density)
		c := genSorted(rng, 4096, density)
		for _, policy := range []struct {
			name string
			p    Policy
		}{{"auto", PolicyAuto}, {"uint", PolicyUintOnly}} {
			sa := FromSorted(a, policy.p)
			sb := FromSorted(c, policy.p)
			b.Run(fmt.Sprintf("density=%g/layout=%s", density, policy.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Intersect(sa, sb)
				}
			})
		}
	}
}

// BenchmarkIntersectSizeRatio shows the crossovers behind the kernels' size
// rules. ratio=N is uint×uint at N times (merge below gallopRatio, gallop
// from it). uint×bitset and marks time both ways of intersecting a
// 64-member set with a uint array N times its size, drawn from the same
// ids: probe tests every array member against the bitset's words (or the
// Marks bitmap), gallop seeks the array from each member of the small side
// — decoded from the bitset first. The crossovers are where the kernels
// switch, bitGallopRatio and gallopRatio.
func BenchmarkIntersectSizeRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	large := genSorted(rng, 1<<16, 0.001)
	sLarge := FromSorted(large, PolicyUintOnly)
	for _, small := range []int{16, 256, 4096, 1 << 16} {
		sm := genSorted(rand.New(rand.NewSource(3)), small, 0.001)
		sSmall := FromSorted(sm, PolicyUintOnly)
		b.Run(fmt.Sprintf("ratio=%d", (1<<16)/small), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Intersect(sSmall, sLarge)
			}
		})
	}
	// A 64-member small side at density 1/128: a bitset under PolicyAuto.
	const small, domain = 64, 64 * 128
	smallVals := genSorted(rand.New(rand.NewSource(6)), small, float64(small)/domain)
	bs := FromSorted(smallVals, PolicyAuto)
	if bs.Layout() != Bitset {
		b.Fatal("the small side is not a bitset")
	}
	var m Marks
	m.Mark(smallVals, domain)
	sweep := func(name string, ratios []int, probe, gallop func(dst, arr []uint32) int) {
		for _, ratio := range ratios {
			arr := genSorted(rand.New(rand.NewSource(7)), ratio*small, float64(ratio*small)/domain)
			dst := make([]uint32, len(arr))
			for _, k := range []struct {
				name string
				run  func(dst, arr []uint32) int
			}{{"probe", probe}, {"gallop", gallop}} {
				b.Run(fmt.Sprintf("%s/ratio=%d/%s", name, ratio, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.run(dst, arr)
					}
				})
			}
		}
	}
	sweep("uint×bitset", []int{4, 8, 16, 32, 64},
		func(dst, arr []uint32) int { return probeWords(dst, arr, bs.words, bs.base) },
		func(dst, arr []uint32) int { return intersectGallop(dst, bs.AppendValues(dst[:0]), arr) })
	sweep("marks", []int{8, 16, 32, 64},
		func(dst, arr []uint32) int { return probeWords(dst, arr, m.words, m.base) },
		func(dst, arr []uint32) int { return intersectGallop(dst, m.marked, arr) })
}

// BenchmarkContains compares the §III-A selection probe across layouts:
// constant time on bitsets versus binary search on arrays.
func BenchmarkContains(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := genSorted(rng, 1<<16, 0.5) // dense: auto picks bitset
	dense := FromSorted(vals, PolicyAuto)
	forced := FromSorted(vals, PolicyUintOnly)
	if dense.Layout() != Bitset {
		b.Fatalf("expected bitset layout")
	}
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dense.Contains(uint32(i) % (1 << 17))
		}
	})
	b.Run("uint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			forced.Contains(uint32(i) % (1 << 17))
		}
	})
}

// BenchmarkBuild measures set construction per layout.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := genSorted(rng, 1<<14, 0.1)
	for _, policy := range []struct {
		name string
		p    Policy
	}{{"auto", PolicyAuto}, {"uint", PolicyUintOnly}} {
		b.Run(policy.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FromSorted(vals, policy.p)
			}
		})
	}
}
