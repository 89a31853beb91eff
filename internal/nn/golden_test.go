package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// sparseDataset is shaped like the Fig 7 input: 2x1000 pooled features
// that are 0/1 with ~18% ones, plus the all-2 timeout encoding.
func sparseDataset(seed int64, n, classes int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for k := range out {
		label := k % classes
		x := make([]float64, 2000)
		if k%23 == 0 {
			for i := range x {
				x[i] = 2
			}
		} else {
			// Each class lights its own band more often than the rest.
			for i := range x {
				p := 0.12
				if i/(2000/classes) == label {
					p = 0.5
				}
				if rng.Float64() < p {
					x[i] = 1
				}
			}
		}
		out[k] = Sample{X: x, Label: label}
	}
	return out
}

// denseDataset is shaped like the pagestore timing input: 16
// standardized real-valued features.
func denseDataset(seed int64, n, classes int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for k := range out {
		label := k % classes
		x := make([]float64, 16)
		for i := range x {
			x[i] = rng.NormFloat64() + float64((label+i)%classes)*0.3
		}
		out[k] = Sample{X: x, Label: label}
	}
	return out
}

// digestModel hashes every weight, bias and the returned loss bit for bit.
func digestModel(m *MLP, loss float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for l := range m.weights {
		for _, v := range m.weights[l] {
			put(v)
		}
		for _, v := range m.biases[l] {
			put(v)
		}
	}
	put(loss)
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGolden pins training bit for bit: any change to the forward
// pass, backprop or update must leave the trained network identical.
func TestTrainGolden(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
		sizes   []int
		cfg     TrainConfig
		want    string
	}{
		{"sparse-fig7", sparseDataset(1, 90, 5), []int{2000, 64, 5},
			TrainConfig{Epochs: 3, LR: 0.02, LRDecay: 0.95},
			"7efd09b461fde8f7fdcd7d16af52e7d735ed0884783a5d3915017d475d6403e6"},
		{"dense-pagestore", denseDataset(2, 150, 6), []int{16, 64, 6},
			TrainConfig{Epochs: 20, LR: 0.1, LRDecay: 0.99},
			"4dc80452bfb0601d558343c42de83a9d95b50b34e6962c1c251ae08ed25b64dc"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(3, c.sizes...)
			if err != nil {
				t.Fatal(err)
			}
			loss, err := m.Train(c.samples, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestModel(m, loss); got != c.want {
				t.Errorf("trained digest = %s, want %s", got, c.want)
			}
		})
	}
}
