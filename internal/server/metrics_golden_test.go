package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden drives one fixed request sequence through the full
// HTTP stack and compares the /metrics snapshot, minus the wall-clock
// server.request_latency_us histogram, byte for byte with a committed
// golden file. Two runs of one build agreeing says nothing about a
// refactor of how counts reach the registry; this file pins the names,
// the values and which series exist at all (declared at zero or
// registered lazily on their first event).
func TestMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	ps := pagestore.New(pagestore.Config{PageSize: 512, Obs: reg})
	// A negative SLOLatency leaves the SLO counters a function of the
	// status codes alone, not of how fast this machine ran the sequence.
	_, ts := newTestServer(t, Config{
		Registry:     reg,
		PageStore:    ps,
		Workers:      2,
		MaxBodyBytes: 4096,
		SLOLatency:   -1,
	})

	body := []byte(strings.Repeat("golden metrics body ", 40))
	var etag string
	steps := []struct {
		name, method, path string
		hdr                map[string]string
		body               []byte
		want               int
	}{
		{"compress miss", "POST", "/v1/lz77/compress", nil, body, 200},
		{"compress hit", "POST", "/v1/lz77/compress", nil, body, 200},
		{"revalidate", "POST", "/v1/lz77/compress", map[string]string{"If-None-Match": ""}, body, 304},
		{"no-store", "POST", "/v1/lzw/compress", map[string]string{"Cache-Control": "no-store"}, body, 200},
		{"bad level", "POST", "/v1/lz77/compress", map[string]string{LevelHeader: "x"}, body, 400},
		{"oversized", "POST", "/v1/lz77/compress", nil, make([]byte, 8192), 413},
		{"corrupt decompress", "POST", "/v1/lz77/decompress", nil, []byte("\xff\xfe\xfd\xfc not a stream"), 400},
		{"unknown codec", "POST", "/v1/gzip/compress", nil, body, 404},
		{"unknown op", "POST", "/v1/lz77/transmogrify", nil, body, 404},
		{"page put", "PUT", "/v1/pages/p1", nil, bytes.Repeat([]byte("page "), 50), 200},
		{"page get", "GET", "/v1/pages/p1", nil, nil, 200},
		{"page not found", "GET", "/v1/pages/absent", nil, nil, 404},
	}
	for _, st := range steps {
		req, err := http.NewRequest(st.method, ts.URL+st.path, bytes.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range st.hdr {
			if k == "If-None-Match" {
				v = etag
			}
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != st.want {
			t.Fatalf("%s: status %d, want %d", st.name, resp.StatusCode, st.want)
		}
		if etag == "" {
			etag = resp.Header.Get("ETag")
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Histograms["server.request_latency_us"]; !ok {
		t.Fatal("server.request_latency_us missing from /metrics")
	}
	delete(snap.Histograms, "server.request_latency_us")
	got, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics-golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics snapshot diverges from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
