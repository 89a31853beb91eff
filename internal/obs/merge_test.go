package obs

import (
	"bytes"
	"fmt"
	"testing"
)

// Merging per-task registries in task order must reproduce the snapshot
// of a sequential run on one shared registry — the property the parallel
// experiment scheduler relies on.
func TestMergeEquivalentToSharedRegistry(t *testing.T) {
	task := func(r *Registry, id int) {
		r.Counter("hits").Add(uint64(10 * (id + 1)))
		r.Counter(fmt.Sprintf("task.%d.only", id)).Inc()
		r.Gauge("last_acc").Set(float64(id) / 10)
		for v := int64(1); v < 100; v += int64(id + 1) {
			r.Histogram("lat").Observe(v)
		}
	}

	shared := NewRegistry()
	for id := 0; id < 4; id++ {
		task(shared, id)
	}
	seq, err := shared.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	merged := NewRegistry()
	regs := make([]*Registry, 4)
	for id := range regs {
		regs[id] = NewRegistry()
		task(regs[id], id)
	}
	for _, r := range regs { // stable task order
		merged.Merge(r)
	}
	par, err := merged.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) {
		t.Errorf("merged snapshot differs from shared-registry snapshot:\n--- shared ---\n%s\n--- merged ---\n%s", seq, par)
	}
}

func TestMergeGaugeLastWins(t *testing.T) {
	a, b, dst := NewRegistry(), NewRegistry(), NewRegistry()
	a.Gauge("acc").Set(0.25)
	b.Gauge("acc").Set(0.75)
	dst.Merge(a)
	dst.Merge(b)
	if got := dst.Gauge("acc").Value(); got != 0.75 {
		t.Errorf("gauge after merge = %v, want last-merged value 0.75", got)
	}
}

func TestMergeHistogramMinMax(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(5)
	a.Observe(100)
	b.Observe(2)
	b.Observe(40)
	a.Merge(b)
	if a.Count() != 4 || a.Sum() != 147 {
		t.Errorf("count/sum = %d/%d, want 4/147", a.Count(), a.Sum())
	}
	if a.min.Load() != 2 || a.max.Load() != 100 {
		t.Errorf("min/max = %d/%d, want 2/100", a.min.Load(), a.max.Load())
	}
}

func TestMergeEmptyHistogramIsNoop(t *testing.T) {
	dst := NewHistogram()
	dst.Observe(7)
	dst.Merge(NewHistogram())
	if dst.Count() != 1 || dst.min.Load() != 7 || dst.max.Load() != 7 {
		t.Errorf("empty merge disturbed state: count=%d min=%d max=%d",
			dst.Count(), dst.min.Load(), dst.max.Load())
	}
	// Into an empty destination: extremes come over verbatim.
	dst2 := NewHistogram()
	src := NewHistogram()
	src.Observe(-3)
	src.Observe(9)
	dst2.Merge(src)
	if dst2.min.Load() != -3 || dst2.max.Load() != 9 {
		t.Errorf("min/max = %d/%d, want -3/9", dst2.min.Load(), dst2.max.Load())
	}
}

func TestMergeNilSafety(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(NewRegistry()) // must not panic
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Merge(nil)
	if r.Counter("c").Value() != 1 {
		t.Error("merging nil src disturbed the registry")
	}
	var nilHist *Histogram
	nilHist.Merge(NewHistogram())
	h := NewHistogram()
	h.Merge(nil)
}
