package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSigmoidKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
		{2, 1 / (1 + math.Exp(-2))},
		{-2, 1 / (1 + math.Exp(2))},
	}
	for _, c := range cases {
		if got := Sigmoid(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Sigmoid(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSigmoidStableForExtremeInputs(t *testing.T) {
	for _, x := range []float64{-1e6, -745, 745, 1e6} {
		got := Sigmoid(x)
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Errorf("Sigmoid(%v) = %v out of [0,1]", x, got)
		}
	}
}

func TestSigmoidPropertySymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return almostEqual(Sigmoid(x)+Sigmoid(-x), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	logits := []float64{1, 2, 3, 4}
	out := make([]float64, 4)
	Softmax(logits, out)
	var sum float64
	for _, p := range out {
		if p <= 0 {
			t.Errorf("softmax produced non-positive probability %v", p)
		}
		sum += p
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	if ArgMax(out) != 3 {
		t.Errorf("softmax argmax = %d, want 3", ArgMax(out))
	}
}

// TestSoftmaxInPlace: out may alias logits (mlmodel computes the softmax
// in its logits buffer), with results bit-identical to a separate out.
func TestSoftmaxInPlace(t *testing.T) {
	logits := []float64{0.3, -2.5, 7.25, 1e-3, 7.25, -40}
	want := Softmax(logits, make([]float64, len(logits)))
	got := Softmax(logits, logits)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in-place softmax[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSoftmaxStableForHugeLogits(t *testing.T) {
	logits := []float64{1000, 1001, 999}
	out := make([]float64, 3)
	Softmax(logits, out)
	for i, p := range out {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("softmax[%d] = %v not finite", i, p)
		}
	}
	if ArgMax(out) != 1 {
		t.Errorf("argmax = %d, want 1", ArgMax(out))
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(a, b, c, shift float64) bool {
		for _, v := range []float64{a, b, c, shift} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return true
			}
		}
		x := []float64{a, b, c}
		y := []float64{a + shift, b + shift, c + shift}
		ox, oy := make([]float64, 3), make([]float64, 3)
		Softmax(x, ox)
		Softmax(y, oy)
		for i := range ox {
			if !almostEqual(ox[i], oy[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	Softmax([]float64{1, 2}, make([]float64, 3))
}

func TestDotAndNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{1.5, 2.5, 3.5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Scale result %v, want %v", y, want)
		}
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
	if got := ArgMax([]float64{5}); got != 0 {
		t.Errorf("ArgMax single = %d, want 0", got)
	}
	// Ties resolve to the first occurrence.
	if got := ArgMax([]float64{2, 7, 7, 1}); got != 1 {
		t.Errorf("ArgMax tie = %d, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRNGDeterministicAndIndependent(t *testing.T) {
	a1 := RNG(42, "compute")
	a2 := RNG(42, "compute")
	b := RNG(42, "network")
	for i := 0; i < 10; i++ {
		if a1.Int63() != a2.Int63() {
			t.Fatal("same seed+name must give identical streams")
		}
	}
	// Streams with different names should diverge essentially immediately.
	same := 0
	a3 := RNG(42, "compute")
	for i := 0; i < 10; i++ {
		if a3.Int63() == b.Int63() {
			same++
		}
	}
	if same == 10 {
		t.Fatal("differently named streams must be independent")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Std = %v, want sqrt(2.5)", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty summary N = %d", empty.N)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Quantile(sorted, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 40 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(sorted, 0.5); got != 25 {
		t.Errorf("q0.5 = %v, want 25", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := RNG(7, "lognormal")
	const n = 200000
	mean, cv := 10.0, 0.5
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := LogNormal(r, mean, cv)
		if x <= 0 {
			t.Fatalf("lognormal draw %v not positive", x)
		}
		sum += x
		ss += x * x
	}
	m := sum / n
	v := ss/n - m*m
	if !almostEqual(m, mean, 0.15) {
		t.Errorf("sample mean = %v, want ~%v", m, mean)
	}
	wantStd := cv * mean
	if !almostEqual(math.Sqrt(v), wantStd, 0.25) {
		t.Errorf("sample std = %v, want ~%v", math.Sqrt(v), wantStd)
	}
}

func TestLogNormalEdgeCases(t *testing.T) {
	r := RNG(7, "edge")
	if got := LogNormal(r, 5, 0); got != 5 {
		t.Errorf("cv=0 should return mean, got %v", got)
	}
	if got := LogNormal(r, 0, 1); got != 0 {
		t.Errorf("mean=0 should return 0, got %v", got)
	}
	if got := LogNormal(r, -3, 1); got != 0 {
		t.Errorf("negative mean should return 0, got %v", got)
	}
}

func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			// Bound magnitudes so the mean's running sum cannot overflow.
			if !math.IsNaN(v) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
