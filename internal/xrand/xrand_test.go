package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling splits produce identical first draws")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64RangeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			if v := r.Intn(m); v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	n := 200000
	sum, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ≈1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 20, 100} {
		r := New(6)
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("Poisson(%v) sample mean %.3f", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(7)
	if v := r.Poisson(0); v != 0 {
		t.Errorf("Poisson(0) = %d, want 0", v)
	}
	if v := r.Poisson(-1); v != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", v)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(9)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 60000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("category %d frequency %.3f, want ≈%.1f", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-sum categorical should panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%50) + 1
		p := New(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(10)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(-1, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %.3f", got)
	}
}

// TestDeriveOrderIndependent is the contract the parallel fleet generator
// rests on: the stream for (seed, i) must not depend on when — or whether —
// any other stream is derived.
func TestDeriveOrderIndependent(t *testing.T) {
	const seed, n, draws = 42, 64, 16

	// Reference: derive streams in ascending index order.
	ref := make([][]uint64, n)
	for i := uint64(0); i < n; i++ {
		r := Derive(seed, i)
		for k := 0; k < draws; k++ {
			ref[i] = append(ref[i], r.Uint64())
		}
	}

	// Derive in descending and in interleaved order; every stream must be
	// identical to the reference.
	for name, order := range map[string][]uint64{
		"descending":  {63, 40, 32, 17, 8, 3, 0},
		"interleaved": {1, 63, 2, 62, 31, 30, 7},
	} {
		for _, i := range order {
			r := Derive(seed, i)
			for k := 0; k < draws; k++ {
				if got := r.Uint64(); got != ref[i][k] {
					t.Fatalf("%s order: stream %d draw %d = %d, want %d", name, i, k, got, ref[i][k])
				}
			}
		}
	}
}

// TestDeriveStreamsDistinct checks pairwise distinctness of derived
// streams: adjacent indices and adjacent seeds must not collide or shadow
// one another.
func TestDeriveStreamsDistinct(t *testing.T) {
	const draws = 8
	seen := map[[draws]uint64][2]uint64{}
	for seed := uint64(0); seed < 16; seed++ {
		for i := uint64(0); i < 64; i++ {
			r := Derive(seed, i)
			var sig [draws]uint64
			for k := range sig {
				sig[k] = r.Uint64()
			}
			if prev, dup := seen[sig]; dup {
				t.Fatalf("streams (seed=%d,i=%d) and (seed=%d,i=%d) are identical",
					seed, i, prev[0], prev[1])
			}
			seen[sig] = [2]uint64{seed, i}
		}
	}
}

// TestDeriveUniform sanity-checks that a derived stream is still uniform
// (the splitmix finalizer must not bias the xoshiro seeding).
func TestDeriveUniform(t *testing.T) {
	r := Derive(7, 12345)
	n, sum := 100000, 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Derive stream mean %.4f, want ~0.5", mean)
	}
}
