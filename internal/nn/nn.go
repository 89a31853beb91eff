// Package nn implements the small feed-forward network the fingerprinting
// attack trains on Flush+Reload traces (§VI). It stands in for the
// paper's PyTorch DNN: dense layers with ReLU, softmax cross-entropy,
// minibatch SGD, and a confusion-matrix evaluator — all deterministic
// given a seed.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadShape reports inconsistent layer or sample dimensions.
var ErrBadShape = errors.New("nn: bad shape")

// Sample is one training example: a feature vector and its class label.
type Sample struct {
	X     []float64
	Label int
}

// MLP is a multi-layer perceptron with ReLU hidden activations and a
// softmax output.
type MLP struct {
	sizes   []int
	weights [][]float64 // layer l: sizes[l+1] x sizes[l], row-major
	biases  [][]float64
	rng     *rand.Rand
	// train holds the buffers sgdStep reuses across minibatches. It is
	// built by the first step; Predict and Probabilities never touch it.
	train *trainBuffers
}

// trainBuffers is one training step's working memory.
type trainBuffers struct {
	acts   [][]float64 // acts[0] is the sample's input; acts[l] layer l's output
	deltas [][]float64 // deltas[l], l >= 1: loss gradient at layer l's output
	gradW  [][]float64 // summed over the minibatch, zeroed after each update
	gradB  [][]float64
	nz     []int // ascending indices of the sample's nonzero inputs
}

// New builds an MLP with the given layer sizes (input, hidden..., output)
// and He-initialized weights.
func New(seed int64, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least input and output layers", ErrBadShape)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("%w: non-positive layer size", ErrBadShape)
		}
	}
	m := &MLP{sizes: sizes, rng: rand.New(rand.NewSource(seed))}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in))
		for i := range w {
			w[i] = m.rng.NormFloat64() * scale
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m, nil
}

// NumClasses returns the output layer width.
func (m *MLP) NumClasses() int { return m.sizes[len(m.sizes)-1] }

// newActs returns activation buffers for forward; acts[0] is left for
// the input.
func (m *MLP) newActs() [][]float64 {
	acts := make([][]float64, len(m.sizes))
	for l := 1; l < len(m.sizes); l++ {
		acts[l] = make([]float64, m.sizes[l])
	}
	return acts
}

// nonzero appends the indices of x's nonzero entries, ascending, to
// nz[:0].
func nonzero(x []float64, nz []int) []int {
	nz = nz[:0]
	for i, v := range x {
		if v != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

// forward fills acts[1:] with the layer activations for the input
// acts[0] (post-ReLU for hidden layers, raw logits for the last). nz
// lists the input's nonzero indices in ascending order.
//
// Layer 0 sums only over nz, and that is exact. A skipped term is w*0,
// which is +0 or -0 for finite w. The sum starts at a bias, and SGD never
// turns a bias into -0: it starts at +0, and x-y is -0 only when x is.
// An IEEE sum is -0 only when both addends are, so the running sum is
// never -0, and adding +0 or -0 to it leaves it unchanged. Pooled
// traces are 82% zeros, so this skips most of the work.
func (m *MLP) forward(nz []int, acts [][]float64) {
	for l := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		a, z := acts[l], acts[l+1]
		w := m.weights[l]
		for o := 0; o < out; o++ {
			sum := m.biases[l][o]
			row := w[o*in : (o+1)*in]
			if l == 0 {
				for _, i := range nz {
					sum += row[i] * a[i]
				}
			} else {
				for i, v := range a {
					sum += row[i] * v
				}
			}
			if l < len(m.weights)-1 && sum < 0 {
				sum = 0 // ReLU
			}
			z[o] = sum
		}
	}
}

// logits runs a forward pass in fresh buffers, leaving m untouched.
func (m *MLP) logits(x []float64) []float64 {
	acts := m.newActs()
	acts[0] = x
	m.forward(nonzero(x, nil), acts)
	return acts[len(acts)-1]
}

// Predict returns the most likely class for x.
func (m *MLP) Predict(x []float64) (int, error) {
	if len(x) != m.sizes[0] {
		return 0, fmt.Errorf("%w: input %d, want %d", ErrBadShape, len(x), m.sizes[0])
	}
	logits := m.logits(x)
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best, nil
}

// Probabilities returns the softmax distribution for x.
func (m *MLP) Probabilities(x []float64) ([]float64, error) {
	if len(x) != m.sizes[0] {
		return nil, fmt.Errorf("%w: input %d, want %d", ErrBadShape, len(x), m.sizes[0])
	}
	logits := m.logits(x)
	out := make([]float64, len(logits))
	softmax(out, logits)
	return out, nil
}

// softmax writes the softmax of logits into out.
func softmax(out, logits []float64) {
	maxV := logits[0]
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxV)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

// TrainConfig tunes SGD.
type TrainConfig struct {
	Epochs    int     // default 20
	BatchSize int     // default 16
	LR        float64 // default 0.01
	// LRDecay multiplies LR each epoch (default 1.0 = constant).
	LRDecay float64
	// Verbose, if non-nil, receives per-epoch loss lines.
	Verbose func(epoch int, loss float64)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.LRDecay == 0 {
		c.LRDecay = 1.0
	}
	return c
}

// Train runs minibatch SGD with softmax cross-entropy loss and returns
// the final average loss.
func (m *MLP) Train(samples []Sample, cfg TrainConfig) (float64, error) {
	if cfg.Epochs < 0 || cfg.BatchSize < 0 {
		return 0, fmt.Errorf("%w: negative epochs %d or batch size %d", ErrBadShape, cfg.Epochs, cfg.BatchSize)
	}
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return 0, fmt.Errorf("%w: no samples", ErrBadShape)
	}
	for _, s := range samples {
		if len(s.X) != m.sizes[0] {
			return 0, fmt.Errorf("%w: sample input %d, want %d", ErrBadShape, len(s.X), m.sizes[0])
		}
		if s.Label < 0 || s.Label >= m.NumClasses() {
			return 0, fmt.Errorf("%w: label %d outside %d classes", ErrBadShape, s.Label, m.NumClasses())
		}
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	lr := cfg.LR
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			epochLoss += m.sgdStep(samples, idx[start:end], lr)
		}
		lastLoss = epochLoss / float64(len(samples))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
		lr *= cfg.LRDecay
	}
	return lastLoss, nil
}

// buffers returns the step buffers, building them on first use.
func (m *MLP) buffers() *trainBuffers {
	if m.train != nil {
		return m.train
	}
	tb := &trainBuffers{
		acts:   m.newActs(),
		deltas: m.newActs(),
		nz:     make([]int, 0, m.sizes[0]),
	}
	for l := range m.weights {
		tb.gradW = append(tb.gradW, make([]float64, len(m.weights[l])))
		tb.gradB = append(tb.gradB, make([]float64, len(m.biases[l])))
	}
	m.train = tb
	return tb
}

// sgdStep accumulates gradients over one minibatch and applies them. It
// reuses m's train buffers, so it allocates only on the first call.
func (m *MLP) sgdStep(samples []Sample, batch []int, lr float64) float64 {
	tb := m.buffers()
	top := len(m.weights)
	var loss float64
	for _, si := range batch {
		s := samples[si]
		tb.acts[0] = s.X
		tb.nz = nonzero(s.X, tb.nz)
		m.forward(tb.nz, tb.acts)

		// Backprop. delta over logits:
		delta := tb.deltas[top]
		softmax(delta, tb.acts[top])
		loss += -math.Log(math.Max(delta[s.Label], 1e-12))
		delta[s.Label] -= 1

		for l := top - 1; l > 0; l-- {
			in, out := m.sizes[l], m.sizes[l+1]
			a := tb.acts[l]
			gw, gb := tb.gradW[l], tb.gradB[l]
			w := m.weights[l]
			prev := tb.deltas[l]
			clear(prev)
			for o := 0; o < out; o++ {
				d := delta[o]
				gb[o] += d
				row := gw[o*in : (o+1)*in]
				wrow := w[o*in : (o+1)*in]
				for i, v := range a {
					row[i] += d * v
					prev[i] += d * wrow[i]
				}
			}
			// ReLU derivative on the hidden activation.
			for i := range prev {
				if a[i] <= 0 {
					prev[i] = 0
				}
			}
			delta = prev
		}

		// Layer 0 sums over the nonzero inputs only, exact by forward's
		// argument: each gradient sum starts at +0 and is never -0, so a
		// skipped d*0 term would leave it unchanged.
		in := m.sizes[0]
		gw, gb := tb.gradW[0], tb.gradB[0]
		for o, d := range delta {
			gb[o] += d
			row := gw[o*in : (o+1)*in]
			for _, i := range tb.nz {
				row[i] += d * s.X[i]
			}
		}
	}
	// Apply the step and zero the gradients for the next batch.
	scale := lr / float64(len(batch))
	for l := range m.weights {
		w, gw := m.weights[l], tb.gradW[l]
		for i := range w {
			w[i] -= scale * gw[i]
			gw[i] = 0
		}
		b, gb := m.biases[l], tb.gradB[l]
		for i := range b {
			b[i] -= scale * gb[i]
			gb[i] = 0
		}
	}
	return loss
}

// Accuracy evaluates top-1 accuracy over samples.
func (m *MLP) Accuracy(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	correct := 0
	for _, s := range samples {
		p, err := m.Predict(s.X)
		if err != nil {
			return 0, err
		}
		if p == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}

// ConfusionMatrix returns M where M[actual][predicted] is the fraction of
// class `actual` samples predicted as `predicted` — the layout of the
// paper's Figs 7 and 8.
func (m *MLP) ConfusionMatrix(samples []Sample) ([][]float64, error) {
	n := m.NumClasses()
	counts := make([][]float64, n)
	totals := make([]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
	}
	for _, s := range samples {
		p, err := m.Predict(s.X)
		if err != nil {
			return nil, err
		}
		counts[s.Label][p]++
		totals[s.Label]++
	}
	for i := range counts {
		if totals[i] > 0 {
			for j := range counts[i] {
				counts[i][j] /= totals[i]
			}
		}
	}
	return counts, nil
}

// Split partitions samples into train/eval/test sets with the given
// fractions (the remainder goes to test), shuffled deterministically.
func Split(samples []Sample, trainFrac, evalFrac float64, seed int64) (train, eval, test []Sample) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(samples))
	nTrain := int(float64(len(samples)) * trainFrac)
	nEval := int(float64(len(samples)) * evalFrac)
	for k, i := range idx {
		switch {
		case k < nTrain:
			train = append(train, samples[i])
		case k < nTrain+nEval:
			eval = append(eval, samples[i])
		default:
			test = append(test, samples[i])
		}
	}
	return train, eval, test
}
