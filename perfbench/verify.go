package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"sync"
	"sync/atomic"
)

// verifier tallies checked operations. Every operation the benchmark
// attempts passes through exactly one check; a failed, refused or
// wrong-output operation counts against ok_frac and makes the command
// exit non-zero. It is safe for concurrent use.
type verifier struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	notes []string // the first few failure descriptions, for stderr
}

const maxNotes = 8

func (v *verifier) fail(format string, args ...any) {
	v.failed.Add(1)
	v.mu.Lock()
	if len(v.notes) < maxNotes {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
}

// ok records one operation and reports whether it passed.
func (v *verifier) ok(pass bool, format string, args ...any) bool {
	v.attempted.Add(1)
	if !pass {
		v.fail(format, args...)
	}
	return pass
}

// response checks one HTTP exchange: no transport error, status 200, and
// (when want is non-nil) a body byte-equal to want.
func (v *verifier) response(what string, err error, status int, got, want []byte) bool {
	v.attempted.Add(1)
	switch {
	case err != nil:
		v.fail("%s: %v", what, err)
	case status != 200:
		v.fail("%s: status %d: %.120s", what, status, got)
	case want != nil && !bytes.Equal(got, want):
		v.fail("%s: response differs from the expected output (%d bytes, want %d)", what, len(got), len(want))
	default:
		return true
	}
	return false
}

// digest checks that data hashes to the SHA-256 wantHex.
func (v *verifier) digest(what string, data []byte, wantHex string) bool {
	got := sha256Hex(data)
	return v.ok(got == wantHex, "%s: digest %s, want %s", what, got, wantHex)
}

// summary joins the recorded failure descriptions.
func (v *verifier) summary() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return strings.Join(v.notes, "; ")
}

func (v *verifier) counts() (attempted, failed int) {
	return int(v.attempted.Load()), int(v.failed.Load())
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// outputDigest folds a workload's deterministic outputs, in a fixed
// order, into one SHA-256 that two commits can compare byte for byte.
type outputDigest struct{ h hash.Hash }

func newOutputDigest() *outputDigest { return &outputDigest{h: sha256.New()} }

// add appends one labelled output; the length prefix keeps adjacent
// outputs from running together.
func (d *outputDigest) add(label string, b []byte) {
	fmt.Fprintf(d.h, "%s %d\n", label, len(b))
	d.h.Write(b)
}

func (d *outputDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
