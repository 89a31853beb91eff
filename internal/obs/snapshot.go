package obs

import (
	"encoding/json"
	"os"
	"strconv"
)

// HistogramSnapshot is one histogram's frozen state. Buckets map the
// inclusive power-of-two lower bound (as a decimal string; "0" collects
// non-positive values) to the bucket count; empty buckets are omitted.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Buckets map[string]uint64 `json:"buckets"`
}

// Snapshot is a canonical, frozen view of a registry. Marshalling it
// (encoding/json sorts map keys) yields a deterministic document: two
// runs of the same seeded simulation produce byte-identical output.
// Wall-clock quantities are deliberately absent (span wall time reaches
// only the trace sink).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current metric state. Returns an empty
// (but usable) snapshot for a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		hs := HistogramSnapshot{
			Count:   h.Count(),
			Sum:     h.Sum(),
			Buckets: map[string]uint64{},
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		for i := 0; i < numBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets[strconv.FormatUint(BucketLow(i), 10)] = n
			}
		}
		s.Histograms[k] = hs
	}
	return s
}

// MarshalIndent renders the canonical JSON document (sorted keys,
// two-space indent, trailing newline).
func (s *Snapshot) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical JSON document to path.
func (s *Snapshot) WriteFile(path string) error {
	b, err := s.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// WriteSnapshot freezes the registry and writes it to path; a
// convenience for the CLIs' -metrics flag.
func (r *Registry) WriteSnapshot(path string) error {
	return r.Snapshot().WriteFile(path)
}
