package bwt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"github.com/zipchannel/zipchannel/internal/corpus"
)

// digestTracer folds every Tracer event and its argument into a hash,
// and counts the control-flow events so the test can show its inputs
// reach every branch of Fig 6.
type digestTracer struct {
	h                             hash.Hash
	mainEnter, abandons, fallback int
}

func (d *digestTracer) event(tag byte, args ...int) {
	var buf [9]byte
	buf[0] = tag
	d.h.Write(buf[:1])
	for _, a := range args {
		binary.LittleEndian.PutUint64(buf[1:], uint64(a))
		d.h.Write(buf[1:])
	}
}

func (d *digestTracer) BlockStart(index, rawLen int) { d.event('B', index, rawLen) }
func (d *digestTracer) MainSortEnter()               { d.mainEnter++; d.event('M') }
func (d *digestTracer) MainSortAbandon(work int)     { d.abandons++; d.event('A', work) }
func (d *digestTracer) FallbackSortEnter()           { d.fallback++; d.event('F') }
func (d *digestTracer) FtabInc(j uint16)             { d.event('I', int(j)) }
func (d *digestTracer) Work(units int)               { d.event('W', units) }

// goldenInputs covers full blocks that mainSort finishes, full blocks it
// abandons (zeros, whose rotations after RLE1 are identical, among them),
// and short tail blocks that go straight to fallbackSort.
func goldenInputs() [][]byte {
	trunc := func(b []byte, n int) []byte { return b[:min(n, len(b))] }
	files := map[string][]byte{}
	for _, f := range corpus.BrotliLike(1) {
		files[f.Name] = f.Data
	}
	rng := rand.New(rand.NewSource(7))
	lowAlpha := func(n, alpha int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(alpha))
		}
		return b
	}
	return [][]byte{
		trunc(files["alice29.txt"], 23456),
		files["random_org_10k.bin"],
		trunc(files["quickfox_repeated"], 12000),
		trunc(files["zeros"], 10000),
		trunc(files["numbers.csv"], 10500),
		files["xyzzy"],
		corpus.RepetitivenessSeries(3, 10000)[0].Data,
		lowAlpha(10000, 2),
		lowAlpha(12345, 4),
	}
}

// TestTracerGolden pins the compressor's observable behaviour: every
// Tracer event with its argument, in order, plus the compressed bytes,
// at two work factors. Any change to the sorters must leave this digest
// unchanged, because the fingerprinting and SGX attacks read exactly
// this stream.
func TestTracerGolden(t *testing.T) {
	const want = "eb5904bf45d83f1215a149646f33282e16f0b0a8d1c2d00a90d5aa403c4ad546"
	d := &digestTracer{h: sha256.New()}
	for _, wf := range []int{1, 30} {
		for _, src := range goldenInputs() {
			comp, err := Compress(src, Options{WorkFactor: wf, Tracer: d})
			if err != nil {
				t.Fatal(err)
			}
			d.event('C', len(comp))
			d.h.Write(comp)
		}
	}
	if d.mainEnter == 0 || d.abandons == 0 || d.fallback <= d.abandons {
		t.Fatalf("inputs miss a Fig 6 branch: %d mainSort, %d abandoned, %d fallbackSort",
			d.mainEnter, d.abandons, d.fallback)
	}
	if d.abandons == d.mainEnter {
		t.Fatal("inputs never complete mainSort")
	}
	if got := hex.EncodeToString(d.h.Sum(nil)); got != want {
		t.Errorf("tracer digest = %s, want %s", got, want)
	}
}
