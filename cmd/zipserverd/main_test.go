package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

func TestParsePlant(t *testing.T) {
	id, n, secret, err := parsePlant("victim=64:key=HUNTER2")
	if err != nil {
		t.Fatal(err)
	}
	if id != "victim" || n != 64 || !bytes.Equal(secret, []byte("key=HUNTER2")) {
		t.Fatalf("parsePlant: got (%q, %d, %q)", id, n, secret)
	}
	// The secret keeps every '=' and ':' after the first delimiters.
	_, _, secret, err = parsePlant("p=8:a=b:c")
	if err != nil || string(secret) != "a=b:c" {
		t.Fatalf("parsePlant with delimiters in secret: %q, %v", secret, err)
	}
	for _, bad := range []string{"", "victim", "victim=", "victim=:s", "victim=x:s", "=64:s"} {
		if _, _, _, err := parsePlant(bad); err == nil {
			t.Fatalf("parsePlant(%q) should fail", bad)
		}
	}
}

// TestBuildCache pins the -cache-backend compositions: names, the peer
// view, the disabled case, rejected values, and the private temp dir a
// tiered cache gets when -cache-dir is empty.
func TestBuildCache(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		name     string
		cc       cacheConfig
		want     string // "" = caching disabled
		wantPeer string
		wantErr  bool
	}{
		{name: "lru", cc: cacheConfig{Backend: "lru", HotBytes: mib}, want: "lru", wantPeer: "lru"},
		{name: "tiered", cc: cacheConfig{Backend: "tiered", HotBytes: mib, ColdBytes: 4 * mib},
			want: "tiered(lru/disk)", wantPeer: "tiered(lru/disk)"},
		{name: "tiered+peer", cc: cacheConfig{Backend: "tiered", HotBytes: mib, ColdBytes: 4 * mib, Peer: "http://127.0.0.1:1"},
			want: "tiered(tiered(lru/disk)/peer)", wantPeer: "tiered(lru/disk)"},
		{name: "disabled", cc: cacheConfig{Backend: "tiered", HotBytes: 0, ColdBytes: 4 * mib}},
		{name: "disk", cc: cacheConfig{Backend: "disk", HotBytes: mib, ColdBytes: 4 * mib}, wantErr: true},
		{name: "bogus", cc: cacheConfig{Backend: "bogus", HotBytes: mib}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			cache, peerView, cleanup, err := buildCache(tc.cc, obs.NewRegistry(), nil)
			if tc.wantErr {
				cleanup()
				if err == nil {
					t.Fatalf("buildCache(%q) should fail", tc.cc.Backend)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				cleanup()
				if cache != nil || peerView != nil {
					t.Fatalf("disabled cache: got %v, %v; want nil, nil", cache, peerView)
				}
				return
			}
			if cache.Name() != tc.want || peerView.Name() != tc.wantPeer {
				t.Fatalf("names = %q, peer view %q; want %q, %q", cache.Name(), peerView.Name(), tc.want, tc.wantPeer)
			}
			if tc.cc.Peer == "" && cache != peerView {
				t.Fatal("without a peer tier the peer view must be the cache itself")
			}
			dirs, _ := filepath.Glob(filepath.Join(tmp, "zipserverd-cache-*"))
			if tc.cc.Backend == "tiered" && len(dirs) != 1 {
				t.Fatalf("temp cache dirs = %v, want exactly one", dirs)
			}
			cache.Close()
			cleanup()
			for _, d := range dirs {
				if _, err := os.Stat(d); !os.IsNotExist(err) {
					t.Fatalf("cleanup left %s behind (stat err %v)", d, err)
				}
			}
		})
	}
}
