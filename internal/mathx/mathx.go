// Package mathx provides small numeric helpers shared across the
// repository: numerically stable activation functions, summary statistics,
// and deterministic named random-number streams.
//
// Everything in this package is pure and allocation-conscious; hot paths
// (softmax, dot products) are written to be inlinable and to reuse caller
// buffers.
package mathx

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Sigmoid returns 1/(1+e^-x) computed in a numerically stable way for
// large-magnitude inputs.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Softmax writes the softmax of logits into out (which must have the same
// length) and returns out. It subtracts the maximum logit before
// exponentiating so the result is stable for large logits. out may alias
// logits: each logit is read before its slot is written.
func Softmax(logits, out []float64) []float64 {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("mathx: softmax length mismatch %d != %d", len(out), len(logits)))
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
	return out
}

// The vector kernels below (Dot, Norm2, Axpy, Scale, AxpyBatch) are the
// gradient-apply hot path of the parameter server: they run once per key
// per push under a stripe lock. Each is unrolled 4-wide with a scalar
// remainder loop; the full-width slices (x[i:i+4:i+4]) hoist the bounds
// checks out of the unrolled body. Dot and Norm2 accumulate into four
// independent sums (breaking the add dependency chain), so their rounding
// differs from a strict left-to-right sum by the usual reassociation
// error — callers that need bit-exact reproducibility across kernel
// versions must not (and do not) rely on the summation order.

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	i, n := 0, len(a)
	for ; i+4 <= n; i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s0, s1, s2, s3 float64
	i, n := 0, len(v)
	for ; i+4 <= n; i += 4 {
		x := v[i : i+4 : i+4]
		s0 += x[0] * x[0]
		s1 += x[1] * x[1]
		s2 += x[2] * x[2]
		s3 += x[3] * x[3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		s += v[i] * v[i]
	}
	return math.Sqrt(s)
}

// Axpy computes y += alpha*x element-wise. x and y must have equal length.
// Elements are independent, so the unrolled form is bit-identical to the
// scalar loop.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: axpy length mismatch %d != %d", len(x), len(y)))
	}
	i, n := 0, len(x)
	for ; i+4 <= n; i += 4 {
		xa, ya := x[i:i+4:i+4], y[i:i+4:i+4]
		ya[0] += alpha * xa[0]
		ya[1] += alpha * xa[1]
		ya[2] += alpha * xa[2]
		ya[3] += alpha * xa[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// AxpyBatch computes y += alpha * (xs[0] + xs[1] + … + xs[k-1]),
// visiting y once per four gradients. It is the fused form of k
// successive Axpy calls: summing a quad of gradients into one multiply-
// add halves the FLOPs (one add per element per gradient instead of a
// multiply and an add) and cuts the read-modify-write traffic on the
// destination by 4×, which is what makes coalescing same-key gradients
// in the server's apply engine cheaper than applying them one push at a
// time. Every xs[j] must have the same length as y.
//
// Gradients are grouped in quads with the four source slices held in
// locals — measured faster than a slice-of-slices accumulator loop
// (whose per-chunk header reloads eat the FLOP saving) and than wider
// groups (which spill registers). Per-element sums are accumulated
// before the multiply-add into y, so rounding differs from k sequential
// Axpy calls by ordinary reassociation error (the gradients' arrival
// order was never deterministic to begin with).
func AxpyBatch(alpha float64, xs [][]float64, y []float64) {
	switch len(xs) {
	case 0:
		return
	case 1:
		Axpy(alpha, xs[0], y)
		return
	}
	for j, x := range xs {
		if len(x) != len(y) {
			panic(fmt.Sprintf("mathx: axpy batch length mismatch %d != %d (gradient %d)", len(x), len(y), j))
		}
	}
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		axpyQuad(alpha, xs[j], xs[j+1], xs[j+2], xs[j+3], y)
	}
	switch len(xs) - j {
	case 1:
		Axpy(alpha, xs[j], y)
	case 2:
		axpyPair(alpha, xs[j], xs[j+1], y)
	case 3:
		axpyTriple(alpha, xs[j], xs[j+1], xs[j+2], y)
	}
}

// axpyQuad computes y += alpha*((a+b)+(c+d)) in one pass.
func axpyQuad(alpha float64, a, b, c, d, y []float64) {
	i, n := 0, len(y)
	for ; i+4 <= n; i += 4 {
		aa, ba, ca, da, ya := a[i:i+4:i+4], b[i:i+4:i+4], c[i:i+4:i+4], d[i:i+4:i+4], y[i:i+4:i+4]
		ya[0] += alpha * ((aa[0] + ba[0]) + (ca[0] + da[0]))
		ya[1] += alpha * ((aa[1] + ba[1]) + (ca[1] + da[1]))
		ya[2] += alpha * ((aa[2] + ba[2]) + (ca[2] + da[2]))
		ya[3] += alpha * ((aa[3] + ba[3]) + (ca[3] + da[3]))
	}
	for ; i < n; i++ {
		y[i] += alpha * ((a[i] + b[i]) + (c[i] + d[i]))
	}
}

// axpyTriple computes y += alpha*((a+b)+c) in one pass.
func axpyTriple(alpha float64, a, b, c, y []float64) {
	i, n := 0, len(y)
	for ; i+4 <= n; i += 4 {
		aa, ba, ca, ya := a[i:i+4:i+4], b[i:i+4:i+4], c[i:i+4:i+4], y[i:i+4:i+4]
		ya[0] += alpha * ((aa[0] + ba[0]) + ca[0])
		ya[1] += alpha * ((aa[1] + ba[1]) + ca[1])
		ya[2] += alpha * ((aa[2] + ba[2]) + ca[2])
		ya[3] += alpha * ((aa[3] + ba[3]) + ca[3])
	}
	for ; i < n; i++ {
		y[i] += alpha * ((a[i] + b[i]) + c[i])
	}
}

// axpyPair computes y += alpha*(a+b) in one pass.
func axpyPair(alpha float64, a, b, y []float64) {
	i, n := 0, len(y)
	for ; i+4 <= n; i += 4 {
		aa, ba, ya := a[i:i+4:i+4], b[i:i+4:i+4], y[i:i+4:i+4]
		ya[0] += alpha * (aa[0] + ba[0])
		ya[1] += alpha * (aa[1] + ba[1])
		ya[2] += alpha * (aa[2] + ba[2])
		ya[3] += alpha * (aa[3] + ba[3])
	}
	for ; i < n; i++ {
		y[i] += alpha * (a[i] + b[i])
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v []float64) {
	i, n := 0, len(v)
	for ; i+4 <= n; i += 4 {
		x := v[i : i+4 : i+4]
		x[0] *= alpha
		x[1] *= alpha
		x[2] *= alpha
		x[3] *= alpha
	}
	for ; i < n; i++ {
		v[i] *= alpha
	}
}

// ArgMax returns the index of the largest element of v, or -1 if v is empty.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// RNG returns a deterministic random stream derived from a base seed and a
// stream name. Distinct names yield independent streams, so simulator
// components (compute noise, network noise, PSSP coin flips, data
// shuffling) can each consume randomness without perturbing one another —
// adding a draw in one component never changes another component's
// sequence.
func RNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	// fnv never returns an error.
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P95    float64
}

// Summarize computes summary statistics of xs. It returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of an already-sorted
// sample using linear interpolation between closest ranks.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := Clamp(q, 0, 1) * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LogNormal draws a log-normally distributed value such that the result has
// the given mean and the given coefficient of variation (std/mean). A cv of
// zero returns mean exactly.
func LogNormal(r *rand.Rand, mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}
