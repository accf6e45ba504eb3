package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"deep500/internal/tensor"
)

func randSlice(rng *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Norm())
	}
	return s
}

func gemmRef(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] = float32(s)
		}
	}
	return c
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestGemmAlgorithmsAgree(t *testing.T) {
	rng := tensor.NewRNG(1)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {64, 64, 64}, {100, 3, 50}, {65, 130, 31}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := gemmRef(a, b, m, k, n)
		for _, algo := range []GemmAlgo{GemmNaive, GemmBlocked, GemmParallel, GemmPacked} {
			c := make([]float32, m*n)
			Gemm(algo, a, b, c, m, k, n)
			if d := maxAbsDiff(c, want); d > 1e-3*float64(k) {
				t.Errorf("%v %dx%dx%d: max diff %g", algo, m, k, n, d)
			}
		}
	}
}

func TestGemmOverwritesOutput(t *testing.T) {
	a := []float32{1, 0, 0, 1}
	c := []float32{9, 9, 9, 9}
	Gemm(GemmBlocked, a, a, c, 2, 2, 2)
	if c[0] != 1 || c[1] != 0 || c[3] != 1 {
		t.Fatalf("stale output not cleared: %v", c)
	}
}

func TestGemmPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(GemmNaive, make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

func TestGemmFLOPs(t *testing.T) {
	if GemmFLOPs(2, 3, 4) != 48 {
		t.Fatalf("GemmFLOPs = %d", GemmFLOPs(2, 3, 4))
	}
}

func TestPropGemmIdentity(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		n := rng.Intn(20) + 1
		a := randSlice(rng, n*n)
		id := make([]float32, n*n)
		for i := 0; i < n; i++ {
			id[i*n+i] = 1
		}
		c := make([]float32, n*n)
		Gemm(GemmBlocked, a, id, c, n, n, n)
		return maxAbsDiff(c, a) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGemmLinearity(t *testing.T) {
	// (αA)·B == α(A·B)
	f := func(seed uint16, alpha8 int8) bool {
		rng := tensor.NewRNG(uint64(seed))
		alpha := float32(alpha8) / 16
		m, k, n := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		sa := make([]float32, len(a))
		for i, v := range a {
			sa[i] = alpha * v
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		Gemm(GemmBlocked, sa, b, c1, m, k, n)
		Gemm(GemmBlocked, a, b, c2, m, k, n)
		for i := range c2 {
			c2[i] *= alpha
		}
		return maxAbsDiff(c1, c2) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
