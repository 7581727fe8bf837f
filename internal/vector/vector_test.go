package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDotAndNorm(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("dot = %v", got)
	}
	if got := Norm(Vec{3, 4}); got != 5 {
		t.Fatalf("norm = %v", got)
	}
	if got := L2Sq(a, b); got != 27 {
		t.Fatalf("l2sq = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize(Vec{3, 4})
	if math.Abs(Norm(v)-1) > 1e-6 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize(Vec{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector must stay zero")
	}
}

func TestEmbedderDeterministic(t *testing.T) {
	e1 := NewEmbedder(64)
	e2 := NewEmbedder(64)
	a := e1.Text("canon powershot camera")
	b := e2.Text("canon powershot camera")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic across embedders")
		}
	}
}

func TestEmbedderUnitNorm(t *testing.T) {
	e := NewEmbedder(64)
	for _, s := range []string{"a", "canon camera", "the quick brown fox"} {
		if n := Norm(e.Text(s)); math.Abs(n-1) > 1e-5 {
			t.Fatalf("Text(%q) norm = %v", s, n)
		}
	}
	if n := Norm(e.Text("")); n != 0 {
		t.Fatalf("empty text should embed to zero, norm = %v", n)
	}
}

func TestEmbedderSubwordRobustness(t *testing.T) {
	// A typo'd word must stay far closer to the original than an unrelated
	// word, because they share most subword grams (the fastText property
	// the substitution must preserve).
	e := NewEmbedder(Dim)
	orig := e.Word("powershot")
	typo := e.Word("powershut")
	other := e.Word("bibliography")
	simTypo := Dot(orig, typo)
	simOther := Dot(orig, other)
	if simTypo <= simOther+0.2 {
		t.Fatalf("typo similarity %.3f not well above unrelated %.3f", simTypo, simOther)
	}
}

func TestEmbedderWordOrderInsensitive(t *testing.T) {
	e := NewEmbedder(Dim)
	a := e.Text("canon camera black")
	b := e.Text("black canon camera")
	if Dot(a, b) < 0.999 {
		t.Fatalf("tuple embedding should be order-insensitive, sim = %v", Dot(a, b))
	}
}

// TestGaussianPrefixStable pins the property the hyperplane sketch
// relies on: Gaussian is one sequential stream per seed, so the first n
// values drawn for any longer output equal the n values drawn alone, odd
// n included (the unpaired last value is the cosine half of its pair).
func TestGaussianPrefixStable(t *testing.T) {
	for _, seed := range []uint64{0, 1, 11, 0x2545f4914f6cdd1d} {
		long := make([]float64, 1201)
		Gaussian(long, seed)
		for _, n := range []int{0, 1, 2, 3, 17, 96, 97, 300, 1200} {
			short := make([]float64, n)
			Gaussian(short, seed)
			for i, x := range short {
				if math.Float64bits(x) != math.Float64bits(long[i]) {
					t.Fatalf("seed %d: value %d of a %d-value draw is %v, of a %d-value draw %v", seed, i, n, x, len(long), long[i])
				}
			}
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	out := make([]float64, 100000)
	Gaussian(out, 42)
	var mean, varSum float64
	for _, x := range out {
		mean += x
	}
	mean /= float64(len(out))
	for _, x := range out {
		varSum += (x - mean) * (x - mean)
	}
	variance := varSum / float64(len(out))
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gaussian mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("gaussian variance = %v", variance)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(xs []float32) bool {
		if len(xs) == 0 {
			return true
		}
		v := make(Vec, len(xs))
		allZero := true
		for i, x := range xs {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return true
			}
			// Keep magnitudes sane to avoid float32 overflow artifacts.
			v[i] = x / 1e10
			if v[i] != 0 {
				allZero = false
			}
		}
		n := Norm(Normalize(v))
		if allZero || n == 0 {
			return true
		}
		return math.Abs(n-1) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
