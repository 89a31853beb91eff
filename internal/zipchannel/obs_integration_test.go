package zipchannel

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// runWithRegistry runs the bzip2 attack on a fixed input under a fresh
// registry and returns the marshalled snapshot.
func runWithRegistry(t *testing.T) (*Result, []byte) {
	t.Helper()
	input := make([]byte, 192)
	rand.New(rand.NewSource(21)).Read(input)
	cfg := DefaultConfig()
	cfg.Seed = 21
	cfg.Obs = obs.NewRegistry()
	res, err := Attack(input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Obs.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// TestSnapshotDeterministic is the telemetry contract: two fixed-seed
// attack runs must produce byte-identical metric snapshots. Wall-clock
// data (span durations) lives only in the trace stream, never the
// snapshot.
func TestSnapshotDeterministic(t *testing.T) {
	_, snap1 := runWithRegistry(t)
	_, snap2 := runWithRegistry(t)
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("fixed-seed snapshots differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", snap1, snap2)
	}
	if bytes.Contains(snap1, []byte("wall")) {
		t.Errorf("snapshot leaks wall-clock data:\n%s", snap1)
	}
}

// TestAttackTelemetry checks that the full attack populates every layer
// of the telemetry: VM, cache, SGX stepper, Prime+Probe, and recovery.
func TestAttackTelemetry(t *testing.T) {
	res, snap := runWithRegistry(t)
	for _, key := range []string{
		`"vm.instructions"`, `"vm.faults"`,
		`"cache.hits"`, `"cache.misses"`, `"cache.evictions"`,
		`"sgx.faults"`, `"sgx.step.transitions"`, `"sgx.step.iterations"`,
		`"pp.primes"`, `"pp.probes"`, `"pp.probe_latency"`,
		`"attack.iterations"`, `"attack.known_bytes"`,
		`"attack.bit_acc"`, `"attack.byte_acc"`,
	} {
		if !bytes.Contains(snap, []byte(key)) {
			t.Errorf("snapshot missing %s", key)
		}
	}
	if res.CacheAccesses() == 0 {
		t.Error("cache accessors returned nothing")
	}
	if res.KnownBytes == 0 {
		t.Error("KnownBytes not filled from recovery")
	}
}

// TestTraceStream checks the NDJSON trace of an attack run: events are
// sequenced, sim-stamped with the victim's retired-instruction clock,
// and include the span and heatmap emitted at finish.
func TestTraceStream(t *testing.T) {
	input := make([]byte, 128)
	rand.New(rand.NewSource(33)).Read(input)
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.Obs = obs.NewRegistry()
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf)
	cfg.Obs.SetTraceSink(sink)
	if _, err := Attack(input, cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected at least result+span events, got %d lines", len(lines))
	}
	for _, want := range []string{`"ev":"attack.result"`, `"ev":"span"`, `"ev":"cache.heatmap"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	for i, ln := range lines {
		if !strings.HasPrefix(ln, "{") || !strings.HasSuffix(ln, "}") {
			t.Fatalf("line %d is not a JSON object: %q", i, ln)
		}
	}
}
