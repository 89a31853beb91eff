// Command zipserverd serves the repository's three from-scratch codecs over
// HTTP (internal/server): POST /v1/{lz77|lzw|bwt}/{compress|decompress} with
// a content-addressed LRU response cache, a bounded codec worker pool, and
// live telemetry at GET /metrics (canonical obs snapshot by default,
// Prometheus text exposition with ?format=prom). Request tracing is on by
// default: every /v1 request gets a span tree continuing any incoming
// traceparent header, and the response echoes the request's traceparent.
// SIGINT/SIGTERM trigger graceful shutdown: in-flight requests drain up to
// the -drain deadline, after which remaining connections are cut; the final
// metrics snapshot is written either way.
//
// Usage:
//
//	zipserverd -addr 127.0.0.1:8321 -workers 8 -cache-mb 64
//	curl -s --data-binary @file http://127.0.0.1:8321/v1/bwt/compress -o file.bz
//	curl -s http://127.0.0.1:8321/metrics
//	curl -s 'http://127.0.0.1:8321/metrics?format=prom'
//
// Observability extras:
//
//	zipserverd -access-log access.ndjson -trace-file spans.ndjson -pprof
//
// For scripting (the Makefile smoke target), -addr supports port 0 and
// -addr-file writes the actually-bound address once listening.
//
// Chaos runs (make test-chaos) arm deterministic fault injection:
//
//	zipserverd -faults 'server.codec.compress=error:0.05,server.cache.get=corrupt:0.05' -fault-seed 7
//
// The compressed page store (internal/pagestore) mounts on PUT/GET
// /v1/pages/{id} with -pagestore; -pagestore-plant co-locates a secret
// with an attacker-writable region in one page, the target cmd/zippages
// recovers remotely from X-Page-Steps alone:
//
//	zipserverd -pagestore -page-size 4096 -pool-mb 1 -pagestore-plant 'victim=64:key=HUNTER2SECRET000'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
	"github.com/zipchannel/zipchannel/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zipserverd:", err)
		os.Exit(1)
	}
}

// cacheConfig collects the -cache-* flags that shape the backend
// hierarchy.
type cacheConfig struct {
	Backend     string
	HotBytes    int64 // in-memory budget (also the plain lru budget)
	ColdBytes   int64 // disk budget
	Dir         string
	Peer        string
	PeerTimeout time.Duration
}

// buildCache composes the configured backend hierarchy (DESIGN.md §10).
// It returns the full lookup chain, the local view served to peers on
// /internal/cache (never includes the peer tier, so two instances peered
// at each other terminate), and a cleanup for any temp dir it created.
//
// Metric prefixes: a single-backend setup keeps the classic server.cache
// series; a hierarchy puts the aggregate there and per-tier series under
// server.cache.{hot,cold,local,peer}.
func buildCache(cc cacheConfig, reg *obs.Registry, freg *fault.Registry) (cache, peerView server.CacheBackend, cleanup func(), err error) {
	cleanup = func() {}
	if cc.HotBytes <= 0 {
		return nil, nil, cleanup, nil // caching disabled
	}
	// localPrefix is where the innermost composition hangs its aggregate
	// counters: the classic name when it IS the whole cache, a sub-name
	// when a peer tier wraps it.
	localPrefix := "server.cache"
	if cc.Peer != "" {
		localPrefix = "server.cache.local"
	}

	var local server.CacheBackend
	switch cc.Backend {
	case "lru":
		local = server.NewLRUBackend(cc.HotBytes, reg, localPrefix)
	case "tiered":
		// The disk tier needs a directory; default to a disposable temp dir.
		dir := cc.Dir
		if dir == "" {
			tmp, derr := os.MkdirTemp("", "zipserverd-cache-*")
			if derr != nil {
				return nil, nil, cleanup, derr
			}
			dir, cleanup = tmp, func() { os.RemoveAll(tmp) }
		}
		hot := server.NewLRUBackend(cc.HotBytes, reg, "server.cache.hot")
		cold, derr := server.NewDiskBackend(dir, cc.ColdBytes, reg, "server.cache.cold", freg)
		if derr != nil {
			return nil, nil, cleanup, derr
		}
		var coldB server.CacheBackend
		if cold != nil {
			coldB = cold
		}
		local = server.NewTiered(hot, coldB, reg, localPrefix)
	default:
		return nil, nil, cleanup, fmt.Errorf("unknown -cache-backend %q (have lru, tiered)", cc.Backend)
	}

	if cc.Peer == "" {
		return local, local, cleanup, nil
	}
	peer := server.NewPeerBackend(cc.Peer, cc.PeerTimeout, reg, "server.cache.peer", freg)
	full := server.NewTiered(local, peer, reg, "server.cache")
	return full, local, cleanup, nil
}

// runScrub is the -cache-scrub mode: one offline pass over a disk-cache
// directory (the same scrub every startup runs), reported to stdout. The
// pass is idempotent and safe on a live directory only if no zipserverd
// is writing to it — run it before boot, not beside one.
func runScrub(dir string) error {
	rep, err := server.ScrubDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("cache scrub: %s\n", rep.Dir)
	fmt.Printf("  intact entries:     %d (%d value bytes)\n", rep.Recovered, rep.RecoveredBytes)
	fmt.Printf("  quarantined:        %d\n", len(rep.Quarantined))
	for _, name := range rep.Quarantined {
		fmt.Printf("    %s -> %s/\n", name, server.QuarantineDir)
	}
	fmt.Printf("  temp files removed: %d\n", rep.TempsRemoved)
	return nil
}

// parsePlant decodes -pagestore-plant's "id=attackerLen:secret" form.
// The secret may itself contain '=' and ':' — only the first '=' and the
// first ':' after it delimit.
func parsePlant(s string) (id string, attackerLen int, secret []byte, err error) {
	eq := strings.Index(s, "=")
	if eq <= 0 {
		return "", 0, nil, fmt.Errorf("-pagestore-plant %q: want id=attackerLen:secret", s)
	}
	id = s[:eq]
	rest := s[eq+1:]
	colon := strings.Index(rest, ":")
	if colon <= 0 {
		return "", 0, nil, fmt.Errorf("-pagestore-plant %q: want id=attackerLen:secret", s)
	}
	attackerLen, err = strconv.Atoi(rest[:colon])
	if err != nil {
		return "", 0, nil, fmt.Errorf("-pagestore-plant %q: bad attacker region size: %w", s, err)
	}
	return id, attackerLen, []byte(rest[colon+1:]), nil
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers  = flag.Int("workers", 0, "max concurrent codec executions (0 = GOMAXPROCS)")
		queueLim = flag.Int("queue-limit", 0, "max codec requests waiting beyond -workers before shedding 503+Retry-After (0 = 8x workers, negative disables shedding)")
		maxBody  = flag.Int64("max-body", server.DefaultMaxBodyBytes, "per-request body cap in bytes")
		cacheMB  = flag.Int64("cache-mb", 64, "response cache budget in MiB (negative disables; the hot tier for -cache-backend tiered)")

		cacheBackend = flag.String("cache-backend", "lru", "cache backend: lru (in-memory) or tiered (in-memory hot over disk cold)")
		cacheDir     = flag.String("cache-dir", "", "directory for the disk tier (empty = private temp dir, removed on exit)")
		cacheColdMB  = flag.Int64("cache-cold-mb", 256, "disk (cold) tier budget in MiB for -cache-backend tiered")
		cachePeer    = flag.String("cache-peer", "", "base URL of a peer zipserverd whose cache becomes this instance's outermost cold tier")
		peerTimeout  = flag.Duration("cache-peer-timeout", server.DefaultPeerTimeout, "per-exchange deadline for the peer tier")
		cacheMaxAge  = flag.Int("cache-max-age", 0, "max-age seconds advertised in Cache-Control on /v1 responses (0 = default, negative disables)")
		cacheScrub   = flag.Bool("cache-scrub", false, "scrub -cache-dir (verify entries, quarantine torn ones, remove temps), print the report, and exit")
		metrics      = flag.String("metrics", "", "write a final obs snapshot to this file on shutdown")
		faults       = flag.String("faults", "", "deterministic fault injections, comma-separated point=kind:prob[:param] or point=kind@n[:param] (empty disables)")
		fseed        = flag.Int64("fault-seed", 1, "root seed for the fault registry's per-point streams")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline before in-flight connections are cut")

		pagestoreOn = flag.Bool("pagestore", false, "mount the compressed page store on PUT/GET /v1/pages/{id}")
		pageSize    = flag.Int("page-size", pagestore.DefaultPageSize, "page size in bytes for -pagestore")
		poolMB      = flag.Int64("pool-mb", 1, "compressed page pool budget in MiB for -pagestore (LRU writeback past it)")
		pageCodec   = flag.String("page-codec", pagestore.DefaultCodec, "registry codec pages compress with")
		pagePlant   = flag.String("pagestore-plant", "", "plant a co-located page: id=attackerLen:secret (e.g. 'victim=64:key=HUNTER2') — the attack target cmd/zippages recovers")

		trace     = flag.Bool("trace", true, "per-request span trees + traceparent propagation (false disables tracing entirely)")
		traceSeed = flag.Int64("trace-seed", 1, "seed for trace/span ID generation (reproducible ID sequences under sequential load)")
		traceFile = flag.String("trace-file", "", "append span NDJSON records to this file (- for stderr; empty = spans counted but not logged)")
		accessLog = flag.String("access-log", "", "append one NDJSON access record per /v1 request to this file (- for stderr)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in profiling surface)")
		slo       = flag.Duration("slo", 0, "per-request latency objective for server.slo.* counters (0 = default 500ms, negative disables latency breaches)")
	)
	flag.Parse()

	if *cacheScrub {
		if *cacheDir == "" {
			return fmt.Errorf("-cache-scrub requires -cache-dir")
		}
		return runScrub(*cacheDir)
	}

	var freg *fault.Registry
	if *faults != "" {
		freg = fault.NewRegistry(*fseed)
		if err := freg.ArmAll(*faults); err != nil {
			return err
		}
	}
	cacheBytes := *cacheMB
	if cacheBytes > 0 {
		cacheBytes <<= 20
	}
	coldBytes := *cacheColdMB
	if coldBytes > 0 {
		coldBytes <<= 20
	}

	// openSink maps a flag value to a writer: "-" is stderr (stdout stays
	// clean for scripted output), anything else appends to the named file.
	var sinks []*os.File
	defer func() {
		for _, f := range sinks {
			f.Close()
		}
	}()
	openSink := func(path string) (io.Writer, error) {
		if path == "-" {
			return os.Stderr, nil
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, f)
		return f, nil
	}

	reg := obs.NewRegistry()
	if *traceFile != "" {
		w, err := openSink(*traceFile)
		if err != nil {
			return err
		}
		reg.SetTraceSink(obs.NewTraceSink(w))
	}
	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(reg, *traceSeed)
	}
	var accessW io.Writer
	if *accessLog != "" {
		w, err := openSink(*accessLog)
		if err != nil {
			return err
		}
		accessW = w
	}

	cache, peerView, cleanup, err := buildCache(cacheConfig{
		Backend:     *cacheBackend,
		HotBytes:    cacheBytes,
		ColdBytes:   coldBytes,
		Dir:         *cacheDir,
		Peer:        *cachePeer,
		PeerTimeout: *peerTimeout,
	}, reg, freg)
	if err != nil {
		return err
	}
	defer cleanup()

	var pages *pagestore.Store
	if *pagestoreOn {
		pages = pagestore.New(pagestore.Config{
			PageSize:  *pageSize,
			PoolBytes: *poolMB << 20,
			Codec:     *pageCodec,
			Obs:       reg,
			Faults:    freg,
		})
		if *pagePlant != "" {
			id, attackerLen, secret, perr := parsePlant(*pagePlant)
			if perr != nil {
				return perr
			}
			if _, perr := pages.Plant(id, attackerLen, secret); perr != nil {
				return perr
			}
			fmt.Fprintf(os.Stderr, "zipserverd: planted page %q (attacker region %d, %d secret bytes co-located)\n",
				id, attackerLen, len(secret))
		}
	} else if *pagePlant != "" {
		return fmt.Errorf("-pagestore-plant requires -pagestore")
	}

	srv := server.New(server.Config{
		MaxBodyBytes: *maxBody,
		CacheBytes:   cacheBytes,
		Cache:        cache,
		PeerView:     peerView,
		CacheMaxAge:  *cacheMaxAge,
		Workers:      *workers,
		QueueLimit:   *queueLim,
		Registry:     reg,
		Faults:       freg,
		Tracer:       tracer,
		AccessLog:    accessW,
		EnablePprof:  *pprofOn,
		SLOLatency:   *slo,
		PageStore:    pages,
	})
	if freg != nil {
		fmt.Fprintf(os.Stderr, "zipserverd: chaos armed (seed %d): %s\n", *fseed, strings.Join(freg.Armed(), " "))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "zipserverd: listening on %s (workers=%d)\n", bound, srv.Workers())

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err // Serve never returns nil before Shutdown
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "zipserverd: shutting down (drain %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// The drain deadline expired with requests still in flight: cut
		// them rather than hang forever. Exit stays clean — a bounded
		// drain is the contract, not a zero-loss one.
		fmt.Fprintf(os.Stderr, "zipserverd: drain deadline exceeded, forcing close: %v\n", err)
		httpSrv.Close()
	}
	<-errc // reap the Serve goroutine (returns http.ErrServerClosed)
	// The final snapshot is written even after a forced close — a chaos
	// run's post-mortem needs the counters most when shutdown was ugly.
	if *metrics != "" {
		if err := srv.Registry().WriteSnapshot(*metrics); err != nil {
			return err
		}
	}
	return nil
}
