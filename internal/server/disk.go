package server

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// Fault-point names a file-backed LRUBackend consults (armed via the same
// -faults DSL as every other point; disarmed points cost one nil/len
// check).
const (
	// FaultDiskWrite fires on Put: an error injection makes the write
	// fail, which the backend absorbs as a skipped store (degrade to
	// uncached, never to a broken entry).
	FaultDiskWrite = "server.cache.disk.write"
	// FaultDiskRead fires on Get: an error injection makes the read
	// fail, which the backend absorbs as a miss.
	FaultDiskRead = "server.cache.disk.read"
)

// NewDiskBackend creates (mkdir -p) an LRUBackend whose values live in
// files under dir — one file per entry (hex key + ".zc") laid out as a
// 32-byte SHA-256 of the value followed by the value, so integrity
// survives the process. It has a maxBytes value budget, counters under
// prefix, and fault points registered on faults (nil disables
// injection); Name reports "disk". The directory is scrubbed on open
// (ScrubDir): leftover put-* temps from a crash are removed, torn
// entries are quarantined, and every intact entry is re-indexed in
// sorted-key order — so a restart after SIGKILL warm-starts from
// whatever the previous process durably wrote, never from a lie. A
// fresh/empty directory scrubs to an empty index at no cost.
func NewDiskBackend(dir string, maxBytes int64, reg *obs.Registry, prefix string, faults *fault.Registry) (*LRUBackend, error) {
	if maxBytes <= 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := NewLRUBackend(maxBytes, reg, prefix)
	c.dir = dir
	c.fpWrite = faults.Point(FaultDiskWrite)
	c.fpRead = faults.Point(FaultDiskRead)
	rep, err := ScrubDir(dir)
	if err != nil {
		return nil, err
	}
	reg.Counter(prefix + ".scrub.recovered").Add(uint64(rep.Recovered))
	reg.Counter(prefix + ".scrub.quarantined").Add(uint64(len(rep.Quarantined)))
	reg.Counter(prefix + ".scrub.temps_removed").Add(uint64(rep.TempsRemoved))
	// Sorted-key order becomes the recovered recency order (there is no
	// durable recency to restore; any deterministic order keeps restarts
	// reproducible), and entries beyond the byte budget are evicted from
	// the LRU end like any other over-budget state.
	for _, ent := range rep.Entries {
		c.insertLocked(cacheEntry{key: ent.Key, len: ent.Bytes})
	}
	return c, nil
}

func (c *LRUBackend) path(key Key) string {
	return filepath.Join(c.dir, hex.EncodeToString(key[:])+".zc")
}

// writeEntry writes sum||val via a temp file + rename, so a crash
// mid-write can never leave a half entry under a valid name.
func (c *LRUBackend) writeEntry(key Key, val []byte) error {
	if in := c.fpWrite.Hit(); in.Kind == fault.KindError {
		return in.Error()
	}
	sum := sha256.Sum256(val)
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(sum[:]); err == nil {
		_, err = tmp.Write(val)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}
