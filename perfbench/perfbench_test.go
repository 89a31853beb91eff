package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// A tampered response and a wrong manifest digest must each count as a
// failed operation, and a correct response as a passed one.
func TestVerifierCountsTamperedOutputs(t *testing.T) {
	var v verifier
	want := []byte("compressed bytes")
	tampered := append([]byte(nil), want...)
	tampered[3] ^= 1
	manifest := []byte(`{"name":"sgx"}`)

	if !v.response("good", nil, 200, want, want) {
		t.Error("an identical response failed the check")
	}
	if v.response("tampered", nil, 200, tampered, want) {
		t.Error("a tampered response passed the check")
	}
	if v.digest("manifest", manifest, sha256Hex([]byte(`{"name":"sgx2"}`))) {
		t.Error("a manifest with the wrong digest passed the check")
	}
	if !v.digest("manifest", manifest, sha256Hex(manifest)) {
		t.Error("a manifest with its own digest failed the check")
	}
	if attempted, failed := v.counts(); attempted != 4 || failed != 2 {
		t.Errorf("counted %d attempted, %d failed; want 4 and 2", attempted, failed)
	}
}

// Every generated input is a function of the seed: the same seed gives
// identical bytes, another seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	hot := func(seed int64) []byte {
		items, err := makeHotItems(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, it := range items {
			b.WriteString(it.codec + it.op)
			b.Write(it.body)
			b.Write(it.want)
		}
		for _, i := range hotSequence(seed, 4096) {
			b.WriteByte(byte(i))
		}
		return b.Bytes()
	}
	cold := func(seed int64) []byte {
		g := newColdGen(seed)
		var b bytes.Buffer
		for i := int64(0); i < 64; i++ {
			op := g.op(i)
			b.WriteString(op.codec + op.page)
			b.Write(op.body)
		}
		return b.Bytes()
	}
	taint := func(seed int64) []byte {
		var b bytes.Buffer
		for _, v := range taintVictims {
			b.Write(taintInput(seed, v))
		}
		return b.Bytes()
	}
	for name, gen := range map[string]func(int64) []byte{"serve-hot": hot, "serve-cold": cold, "taint-scan": taint} {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// Serve-cold bodies are unique per operation, so no codec request can
// hit the response cache.
func TestColdBodiesUnique(t *testing.T) {
	g := newColdGen(1)
	seen := map[string]bool{}
	for i := int64(0); i < 2000; i++ {
		op := g.op(i)
		if seen[string(op.body)] {
			t.Fatalf("operation %d repeats an earlier body", i)
		}
		seen[string(op.body)] = true
		if op.page != "" && len(op.body) != pageSize {
			t.Fatalf("page operation %d has %d bytes, want %d", i, len(op.body), pageSize)
		}
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4), which the
// benchmark's spread is judged with, and tail keeps ten samples beyond.
func TestStatistics(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Q3 != 8.25 || s.Median != 5 {
		t.Errorf("summary %+v, want q1 2.75, q3 8.25, median 5", s)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", v, pct)
	}
	xs = make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 1980 || pct != 99 {
		t.Errorf("tail of 2000 samples = %v at p%v, want 1980 at p99", v, pct)
	}
}

// Self time is a span's duration less its children's.
func TestSelfTimes(t *testing.T) {
	recs := []*spanRec{
		{Name: spanLookup, Trace: "t1", Span: "b", Parent: "a", WallNS: 2000},
		{Name: spanCodec, Trace: "t1", Span: "c", Parent: "a", WallNS: 5000},
		{Name: spanRequest, Trace: "t1", Span: "a", Parent: "client1", WallNS: 10000,
			Attrs: map[string]any{"codec": "lzw", "op": "compress"}},
		{Name: spanRequest, Trace: "t9", Span: "z", WallNS: 4000}, // not the benchmark's
	}
	clients := []clientSpan{{trace: "t1", span: "client1", wall: 25 * time.Microsecond}, {trace: "t2", span: "client2"}}
	st := computeSelfTimes(recs, clients)
	if st.joined != 1 {
		t.Fatalf("joined %d client spans, want 1", st.joined)
	}
	if got := st.byName[spanRequest]; len(got) != 1 || got[0] != 3 {
		t.Errorf("server.request self µs = %v, want [3]", got)
	}
	if got := st.codec["lzw.compress"]; len(got) != 1 || got[0] != 5 {
		t.Errorf("lzw.compress codec µs = %v, want [5]", got)
	}
	if st.overlapping != 0 || len(st.overhead) != 1 || st.overhead[0] != 15 {
		t.Errorf("overlapping %d overhead %v, want 0 and [15]", st.overlapping, st.overhead)
	}
}

// A tree whose children, summed, outlast their parent breaks the
// one-after-another assumption the self times rest on, and is counted.
func TestSelfTimesFlagOverlap(t *testing.T) {
	recs := []*spanRec{
		{Name: spanLookup, Trace: "t1", Span: "b", Parent: "a", WallNS: 6000},
		{Name: spanCodec, Trace: "t1", Span: "c", Parent: "a", WallNS: 6000},
		{Name: spanRequest, Trace: "t1", Span: "a", Parent: "client1", WallNS: 10000},
		{Name: spanGate, Trace: "t2", Span: "e", Parent: "d", WallNS: 1000},
		{Name: spanRequest, Trace: "t2", Span: "d", Parent: "client2", WallNS: 10000},
	}
	clients := []clientSpan{{trace: "t1", span: "client1"}, {trace: "t2", span: "client2"}}
	if st := computeSelfTimes(recs, clients); st.joined != 2 || st.overlapping != 1 {
		t.Errorf("joined %d, overlapping %d, want 2 and 1", st.joined, st.overlapping)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this command
// prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, the command prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, the command prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
