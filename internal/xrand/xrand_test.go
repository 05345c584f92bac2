package xrand

import (
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
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
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the SplitMix64 reference implementation with
	// state 0: first three outputs.
	st := uint64(0)
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := SplitMix64(&st); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		n := 1 + i%37
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of %d uniform samples = %v, want ~0.5", n, mean)
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(6)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.24 || frac > 0.26 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

func TestShuffleIntsIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		r.ShuffleInts(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("ShuffleInts over %d elements: invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPerm16IsPermutation(t *testing.T) {
	r := New(11)
	p := r.Perm16(1 << 15)
	seen := make([]bool, 1<<15)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestPerm16Deterministic(t *testing.T) {
	a := New(123).Perm16(4096)
	b := New(123).Perm16(4096)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("permutations differ at %d", i)
		}
	}
}

func TestPerm16PanicsOverLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Perm16(1<<16 + 1)
}

func TestGeometricMean(t *testing.T) {
	r := New(12)
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.2)
	}
	mean := float64(sum) / n
	if mean < 4.8 || mean > 5.2 {
		t.Fatalf("Geometric(0.2) mean %v, want ~5", mean)
	}
}

func TestZipfConcentration(t *testing.T) {
	r := New(13)
	z := NewZipf(r, 1000, 1.2)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[500] {
		t.Fatalf("rank 0 (%d) not more frequent than rank 500 (%d)", counts[0], counts[500])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/n < 0.2 {
		t.Fatalf("top-10 mass %v too small for s=1.2", float64(top10)/n)
	}
}

func TestZipfRange(t *testing.T) {
	r := New(14)
	z := NewZipf(r, 17, 0.8)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 17 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestUint64nUnbiasedProperty(t *testing.T) {
	// Property: all outputs within range for arbitrary n.
	f := func(seed uint64, n uint32) bool {
		if n == 0 {
			return true
		}
		r := New(seed)
		for i := 0; i < 32; i++ {
			if r.Uint64n(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 65536, 1.1)
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
