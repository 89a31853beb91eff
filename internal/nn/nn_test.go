package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 10); !errors.Is(err, ErrBadShape) {
		t.Errorf("single layer should fail: %v", err)
	}
	if _, err := New(1, 10, 0, 2); !errors.Is(err, ErrBadShape) {
		t.Errorf("zero layer should fail: %v", err)
	}
	if _, err := New(1, 10, 5, 2); err != nil {
		t.Errorf("valid shape failed: %v", err)
	}
}

func TestPredictShapeCheck(t *testing.T) {
	m, _ := New(1, 4, 2)
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrBadShape) {
		t.Errorf("wrong input size should fail: %v", err)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	m, _ := New(2, 6, 8, 3)
	p, err := m.Probabilities([]float64{0.5, -1, 2, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("probability %f out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %f", sum)
	}
}

// XOR: the canonical non-linearly-separable sanity check.
func TestTrainXOR(t *testing.T) {
	samples := []Sample{
		{X: []float64{0, 0}, Label: 0},
		{X: []float64{0, 1}, Label: 1},
		{X: []float64{1, 0}, Label: 1},
		{X: []float64{1, 1}, Label: 0},
	}
	m, err := New(3, 2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(samples, TrainConfig{Epochs: 2000, BatchSize: 4, LR: 0.3}); err != nil {
		t.Fatal(err)
	}
	acc, err := m.Accuracy(samples)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1.0 {
		t.Errorf("XOR accuracy = %.2f, want 1.0", acc)
	}
}

// Separable clusters must be learned quickly and generalize.
func TestTrainClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	centers := [][]float64{{2, 2, 0}, {-2, 2, 1}, {0, -3, 2}}
	gen := func(n int) []Sample {
		var out []Sample
		for i := 0; i < n; i++ {
			c := centers[rng.Intn(len(centers))]
			out = append(out, Sample{
				X:     []float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5},
				Label: int(c[2]),
			})
		}
		return out
	}
	train, test := gen(300), gen(100)
	m, _ := New(7, 2, 16, 3)
	loss, err := m.Train(train, TrainConfig{Epochs: 60, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.3 {
		t.Errorf("final loss = %.3f, want < 0.3", loss)
	}
	acc, _ := m.Accuracy(test)
	if acc < 0.95 {
		t.Errorf("cluster test accuracy = %.2f, want >= 0.95", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	m, _ := New(1, 2, 2)
	if _, err := m.Train(nil, TrainConfig{}); !errors.Is(err, ErrBadShape) {
		t.Error("empty training set should fail")
	}
	bad := []Sample{{X: []float64{1}, Label: 0}}
	if _, err := m.Train(bad, TrainConfig{}); !errors.Is(err, ErrBadShape) {
		t.Error("wrong input width should fail")
	}
	badLabel := []Sample{{X: []float64{1, 2}, Label: 7}}
	if _, err := m.Train(badLabel, TrainConfig{}); !errors.Is(err, ErrBadShape) {
		t.Error("out-of-range label should fail")
	}
	ok := []Sample{{X: []float64{1, 2}, Label: 1}}
	if _, err := m.Train(ok, TrainConfig{BatchSize: -1}); !errors.Is(err, ErrBadShape) {
		t.Error("negative batch size should fail")
	}
	if _, err := m.Train(ok, TrainConfig{Epochs: -1}); !errors.Is(err, ErrBadShape) {
		t.Error("negative epoch count should fail")
	}
}

// stepFixture is one Fig 7-shaped minibatch and a network warmed by a
// first step, so its train buffers exist.
func stepFixture(tb testing.TB) (*MLP, []Sample, []int) {
	samples := sparseDataset(4, 16, 21)
	m, err := New(5, 2000, 64, 21)
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]int, len(samples))
	for i := range batch {
		batch[i] = i
	}
	m.sgdStep(samples, batch, 0.01)
	return m, samples, batch
}

func TestTrainStepAllocs(t *testing.T) {
	m, samples, batch := stepFixture(t)
	if n := testing.AllocsPerRun(5, func() { m.sgdStep(samples, batch, 0.01) }); n != 0 {
		t.Errorf("warmed sgdStep allocates %.0f times per call, want 0", n)
	}
}

// BenchmarkTrainStep is one Fig 7-shaped minibatch: 16 pooled traces,
// 2000 inputs, 64 hidden units, 21 classes.
func BenchmarkTrainStep(b *testing.B) {
	m, samples, batch := stepFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.sgdStep(samples, batch, 0.01)
	}
}

func TestConfusionMatrixRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var samples []Sample
	for i := 0; i < 60; i++ {
		label := i % 3
		samples = append(samples, Sample{
			X:     []float64{float64(label) + rng.NormFloat64()*0.1, 0},
			Label: label,
		})
	}
	m, _ := New(11, 2, 8, 3)
	if _, err := m.Train(samples, TrainConfig{Epochs: 80, LR: 0.1}); err != nil {
		t.Fatal(err)
	}
	cm, err := m.ConfusionMatrix(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range cm {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %f", i, sum)
		}
	}
	// Well-separated 1-D clusters: diagonal should dominate.
	for i := range cm {
		if cm[i][i] < 0.9 {
			t.Errorf("diagonal [%d][%d] = %.2f, want >= 0.9", i, i, cm[i][i])
		}
	}
}

func TestSplitFractions(t *testing.T) {
	samples := make([]Sample, 100)
	for i := range samples {
		samples[i] = Sample{X: []float64{float64(i)}, Label: 0}
	}
	train, eval, test := Split(samples, 0.8, 0.1, 1)
	if len(train) != 80 || len(eval) != 10 || len(test) != 10 {
		t.Errorf("split = %d/%d/%d, want 80/10/10", len(train), len(eval), len(test))
	}
	// No overlap, full coverage.
	seen := map[float64]bool{}
	for _, set := range [][]Sample{train, eval, test} {
		for _, s := range set {
			if seen[s.X[0]] {
				t.Fatalf("sample %v appears twice", s.X)
			}
			seen[s.X[0]] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("split covers %d/100 samples", len(seen))
	}
}

func TestDeterministicTraining(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 0}, Label: 0},
		{X: []float64{0, 1}, Label: 1},
	}
	run := func() []float64 {
		m, _ := New(42, 2, 4, 2)
		if _, err := m.Train(samples, TrainConfig{Epochs: 10}); err != nil {
			t.Fatal(err)
		}
		p, _ := m.Probabilities([]float64{1, 0})
		return p
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not deterministic for a fixed seed")
		}
	}
}
