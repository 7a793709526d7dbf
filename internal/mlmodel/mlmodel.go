// Package mlmodel implements the learners whose gradients flow through the
// parameter server: a linear softmax classifier (the shallow "AlexNet"
// stand-in), a two-layer MLP (the deeper "ResNet-56" stand-in), and a
// linear-regression objective for the convex regret experiments.
//
// All models expose a flat float64 parameter vector partitioned into keys
// by a keyrange.Layout, so the same model plugs into FluentPS, the
// PS-Lite baseline, the SSPtable baseline, and the discrete-event
// simulator. Gradients are exact analytic gradients — accuracy effects of
// stale or missing updates in the experiments are genuine SGD behaviour,
// not modelled curves.
package mlmodel

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/fluentps/fluentps/internal/dataset"
	"github.com/fluentps/fluentps/internal/keyrange"
	"github.com/fluentps/fluentps/internal/mathx"
)

// Model is a classification learner over a flat parameter vector.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Layout partitions the parameter vector into parameter-server keys.
	Layout() *keyrange.Layout
	// Dim returns the total number of parameters.
	Dim() int
	// Init fills params with a reasonable random initialization.
	Init(rng *rand.Rand, params []float64)
	// Gradient computes the minibatch-averaged gradient of the
	// cross-entropy loss into grad (len Dim) and returns the average
	// loss. grad is overwritten, not accumulated.
	Gradient(params []float64, x [][]float64, y []int, grad []float64) float64
	// Evaluate returns average loss and accuracy over a dataset.
	Evaluate(params []float64, ds *dataset.Dataset) (loss, acc float64)
}

// Significance is the paper's gradient significance function
// SF(g, w) = |g| / |w| (Gaia's significance filter), used as the α of the
// dynamic PSSP model. It returns 1 when the parameters are still at zero.
func Significance(grad, params []float64) float64 {
	pw := mathx.Norm2(params)
	if pw == 0 {
		return 1
	}
	return mathx.Norm2(grad) / pw
}

// EvenLayout splits total parameters into parts near-equal keys — the
// shape of a deep CNN trunk made of many similar small layers.
func EvenLayout(total, parts int) *keyrange.Layout {
	if parts < 1 || parts > total {
		panic(fmt.Sprintf("mlmodel: cannot split %d params into %d keys", total, parts))
	}
	sizes := make([]int, parts)
	for i := range sizes {
		lo := i * total / parts
		hi := (i + 1) * total / parts
		sizes[i] = hi - lo
	}
	return keyrange.MustLayout(sizes)
}

// SkewedLayout splits total parameters into smallKeys light keys plus one
// dominant key holding bigFrac of all parameters — the shape of AlexNet,
// where fully-connected layers dwarf the convolutional ones. This is the
// layout that breaks PS-Lite's default range slicing.
func SkewedLayout(total, smallKeys int, bigFrac float64) *keyrange.Layout {
	if smallKeys < 1 || bigFrac <= 0 || bigFrac >= 1 {
		panic(fmt.Sprintf("mlmodel: invalid skewed layout (smallKeys=%d bigFrac=%v)", smallKeys, bigFrac))
	}
	big := int(float64(total) * bigFrac)
	rest := total - big
	if rest < smallKeys || big < 1 {
		panic(fmt.Sprintf("mlmodel: total %d too small for %d small keys at bigFrac %v", total, smallKeys, bigFrac))
	}
	sizes := make([]int, 0, smallKeys+1)
	for i := 0; i < smallKeys; i++ {
		lo := i * rest / smallKeys
		hi := (i + 1) * rest / smallKeys
		sizes = append(sizes, hi-lo)
	}
	sizes = append(sizes, big)
	return keyrange.MustLayout(sizes)
}

// Softmax is a linear multinomial classifier: logits = W·x + b with W
// stored row-major followed by b. It is the repository's "AlexNet" proxy
// (see DESIGN.md §2 for why a shallow learner suffices).
type Softmax struct {
	classes, dim int
	layout       *keyrange.Layout
	name         string
}

// NewSoftmax creates a softmax classifier. layout may be nil, selecting a
// skewed AlexNet-like layout; otherwise layout.TotalDim must equal
// classes·dim + classes.
func NewSoftmax(classes, dim int, layout *keyrange.Layout) (*Softmax, error) {
	if classes < 2 || dim < 1 {
		return nil, fmt.Errorf("mlmodel: invalid softmax shape %d classes × %d dims", classes, dim)
	}
	total := classes*dim + classes
	if layout == nil {
		smallKeys := 8
		if rest := total - int(float64(total)*0.6); rest < smallKeys {
			smallKeys = rest
		}
		if smallKeys < 1 {
			smallKeys = 1
		}
		if total <= smallKeys+1 {
			layout = EvenLayout(total, total)
		} else {
			layout = SkewedLayout(total, smallKeys, 0.6)
		}
	}
	if layout.TotalDim() != total {
		return nil, fmt.Errorf("mlmodel: layout covers %d params, softmax needs %d", layout.TotalDim(), total)
	}
	return &Softmax{classes: classes, dim: dim, layout: layout,
		name: fmt.Sprintf("softmax(%dx%d)", classes, dim)}, nil
}

// Name implements Model.
func (m *Softmax) Name() string { return m.name }

// Layout implements Model.
func (m *Softmax) Layout() *keyrange.Layout { return m.layout }

// Dim implements Model.
func (m *Softmax) Dim() int { return m.classes*m.dim + m.classes }

// Init implements Model with small Gaussian weights and zero biases.
func (m *Softmax) Init(rng *rand.Rand, params []float64) {
	scale := 1 / math.Sqrt(float64(m.dim))
	for i := 0; i < m.classes*m.dim; i++ {
		params[i] = rng.NormFloat64() * 0.01 * scale
	}
	for i := m.classes * m.dim; i < len(params); i++ {
		params[i] = 0
	}
}

func (m *Softmax) logits(params, x, out []float64) {
	for c := 0; c < m.classes; c++ {
		w := params[c*m.dim : (c+1)*m.dim]
		out[c] = mathx.Dot(w, x) + params[m.classes*m.dim+c]
	}
}

// Gradient implements Model.
func (m *Softmax) Gradient(params []float64, x [][]float64, y []int, grad []float64) float64 {
	if len(grad) != m.Dim() {
		panic(fmt.Sprintf("mlmodel: grad buffer has %d slots, want %d", len(grad), m.Dim()))
	}
	for i := range grad {
		grad[i] = 0
	}
	// One buffer holds the logits and then, in place, their softmax:
	// mathx.Softmax reads each logit before it writes that slot.
	probs := make([]float64, m.classes)
	var loss float64
	for i, xi := range x {
		m.logits(params, xi, probs)
		mathx.Softmax(probs, probs)
		loss += -math.Log(math.Max(probs[y[i]], 1e-12))
		for c := 0; c < m.classes; c++ {
			g := probs[c]
			if c == y[i] {
				g -= 1
			}
			row := grad[c*m.dim : (c+1)*m.dim]
			mathx.Axpy(g, xi, row)
			grad[m.classes*m.dim+c] += g
		}
	}
	inv := 1 / float64(len(x))
	mathx.Scale(inv, grad)
	return loss * inv
}

// Evaluate implements Model.
func (m *Softmax) Evaluate(params []float64, ds *dataset.Dataset) (loss, acc float64) {
	probs := make([]float64, m.classes) // logits, then their softmax in place
	correct := 0
	for i, xi := range ds.X {
		m.logits(params, xi, probs)
		mathx.Softmax(probs, probs)
		loss += -math.Log(math.Max(probs[ds.Y[i]], 1e-12))
		if mathx.ArgMax(probs) == ds.Y[i] {
			correct++
		}
	}
	n := float64(ds.Len())
	return loss / n, float64(correct) / n
}

// MLP is a two-layer perceptron with ReLU hidden units: the repository's
// "ResNet-56" proxy — deep enough that the loss is non-convex and stale
// gradients visibly hurt, small enough that 128-worker simulations run in
// seconds. Parameters are stored as W1 (hidden×in), b1, W2 (classes×hidden),
// b2, in that order.
type MLP struct {
	in, hidden, classes int
	layout              *keyrange.Layout
	name                string
}

// NewMLP creates an MLP. layout may be nil, selecting an even ResNet-like
// layout of 24 keys; otherwise layout.TotalDim must match the parameter
// count.
func NewMLP(in, hidden, classes int, layout *keyrange.Layout) (*MLP, error) {
	if in < 1 || hidden < 1 || classes < 2 {
		return nil, fmt.Errorf("mlmodel: invalid MLP shape %d→%d→%d", in, hidden, classes)
	}
	total := hidden*in + hidden + classes*hidden + classes
	if layout == nil {
		parts := 24
		if parts > total {
			parts = total
		}
		layout = EvenLayout(total, parts)
	}
	if layout.TotalDim() != total {
		return nil, fmt.Errorf("mlmodel: layout covers %d params, MLP needs %d", layout.TotalDim(), total)
	}
	return &MLP{in: in, hidden: hidden, classes: classes, layout: layout,
		name: fmt.Sprintf("mlp(%d-%d-%d)", in, hidden, classes)}, nil
}

// Name implements Model.
func (m *MLP) Name() string { return m.name }

// Layout implements Model.
func (m *MLP) Layout() *keyrange.Layout { return m.layout }

// Dim implements Model.
func (m *MLP) Dim() int {
	return m.hidden*m.in + m.hidden + m.classes*m.hidden + m.classes
}

// parameter block offsets
func (m *MLP) offW1() int { return 0 }
func (m *MLP) offB1() int { return m.hidden * m.in }
func (m *MLP) offW2() int { return m.hidden*m.in + m.hidden }
func (m *MLP) offB2() int { return m.hidden*m.in + m.hidden + m.classes*m.hidden }

// Init implements Model with He initialization for the ReLU layer.
func (m *MLP) Init(rng *rand.Rand, params []float64) {
	s1 := math.Sqrt(2 / float64(m.in))
	for i := m.offW1(); i < m.offB1(); i++ {
		params[i] = rng.NormFloat64() * s1
	}
	for i := m.offB1(); i < m.offW2(); i++ {
		params[i] = 0
	}
	s2 := math.Sqrt(2 / float64(m.hidden))
	for i := m.offW2(); i < m.offB2(); i++ {
		params[i] = rng.NormFloat64() * s2
	}
	for i := m.offB2(); i < m.Dim(); i++ {
		params[i] = 0
	}
}

// forward computes hidden activations and logits for one example.
func (m *MLP) forward(params, x, hidden, logits []float64) {
	w1 := params[m.offW1():m.offB1()]
	b1 := params[m.offB1():m.offW2()]
	for h := 0; h < m.hidden; h++ {
		z := mathx.Dot(w1[h*m.in:(h+1)*m.in], x) + b1[h]
		if z < 0 {
			z = 0
		}
		hidden[h] = z
	}
	w2 := params[m.offW2():m.offB2()]
	b2 := params[m.offB2():]
	for c := 0; c < m.classes; c++ {
		logits[c] = mathx.Dot(w2[c*m.hidden:(c+1)*m.hidden], hidden) + b2[c]
	}
}

// Gradient implements Model via standard backpropagation.
func (m *MLP) Gradient(params []float64, x [][]float64, y []int, grad []float64) float64 {
	if len(grad) != m.Dim() {
		panic(fmt.Sprintf("mlmodel: grad buffer has %d slots, want %d", len(grad), m.Dim()))
	}
	for i := range grad {
		grad[i] = 0
	}
	hidden := make([]float64, m.hidden)
	logits := make([]float64, m.classes)
	probs := make([]float64, m.classes)
	dHidden := make([]float64, m.hidden)
	w2 := params[m.offW2():m.offB2()]
	gW1 := grad[m.offW1():m.offB1()]
	gB1 := grad[m.offB1():m.offW2()]
	gW2 := grad[m.offW2():m.offB2()]
	gB2 := grad[m.offB2():]
	var loss float64
	for i, xi := range x {
		m.forward(params, xi, hidden, logits)
		mathx.Softmax(logits, probs)
		loss += -math.Log(math.Max(probs[y[i]], 1e-12))
		for h := range dHidden {
			dHidden[h] = 0
		}
		for c := 0; c < m.classes; c++ {
			g := probs[c]
			if c == y[i] {
				g -= 1
			}
			mathx.Axpy(g, hidden, gW2[c*m.hidden:(c+1)*m.hidden])
			gB2[c] += g
			mathx.Axpy(g, w2[c*m.hidden:(c+1)*m.hidden], dHidden)
		}
		for h := 0; h < m.hidden; h++ {
			if hidden[h] <= 0 { // ReLU gate
				continue
			}
			mathx.Axpy(dHidden[h], xi, gW1[h*m.in:(h+1)*m.in])
			gB1[h] += dHidden[h]
		}
	}
	inv := 1 / float64(len(x))
	mathx.Scale(inv, grad)
	return loss * inv
}

// Evaluate implements Model.
func (m *MLP) Evaluate(params []float64, ds *dataset.Dataset) (loss, acc float64) {
	hidden := make([]float64, m.hidden)
	logits := make([]float64, m.classes)
	probs := make([]float64, m.classes)
	correct := 0
	for i, xi := range ds.X {
		m.forward(params, xi, hidden, logits)
		mathx.Softmax(logits, probs)
		loss += -math.Log(math.Max(probs[ds.Y[i]], 1e-12))
		if mathx.ArgMax(probs) == ds.Y[i] {
			correct++
		}
	}
	n := float64(ds.Len())
	return loss / n, float64(correct) / n
}

// LinReg is the convex objective used by the Theorem 1/2 regret
// experiments: per-example loss f(w) = ½(⟨w,x⟩ − y)², optionally with
// gradient clipping so the L-Lipschitz assumption of the SSP-SGD regret
// bound holds on the optimization path.
type LinReg struct {
	// Dim is the weight dimensionality.
	Dim int
	// ClipL, when positive, rescales any per-example gradient whose norm
	// exceeds it, enforcing ‖∇f‖ ≤ ClipL.
	ClipL float64
}

// ExampleLoss returns f(w) for one example.
func (m LinReg) ExampleLoss(w, x []float64, y float64) float64 {
	r := mathx.Dot(w, x) - y
	return 0.5 * r * r
}

// ExampleGrad writes ∇f(w) for one example into grad and returns the loss.
func (m LinReg) ExampleGrad(w, x []float64, y float64, grad []float64) float64 {
	r := mathx.Dot(w, x) - y
	for i := range grad {
		grad[i] = r * x[i]
	}
	if m.ClipL > 0 {
		if n := mathx.Norm2(grad); n > m.ClipL {
			mathx.Scale(m.ClipL/n, grad)
		}
	}
	return 0.5 * r * r
}

// MeanLoss returns the average loss of w over a dataset.
func (m LinReg) MeanLoss(w []float64, d *dataset.LinRegDataset) float64 {
	var s float64
	for i := range d.X {
		s += m.ExampleLoss(w, d.X[i], d.Y[i])
	}
	return s / float64(len(d.X))
}
