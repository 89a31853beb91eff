package server

// This file is the server's request-scoped observability: the
// per-request info carrier the middleware and handlers share, the
// structured NDJSON access log, SLO accounting, and the metric handles
// bound at startup, which make every operational series visible (at
// zero) from the first scrape.

import (
	"context"
	"net/http"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// SLO defaults; overridable via Config.
const (
	// DefaultSLOLatency is the per-request wall-latency objective: a /v1
	// request slower than this (or failing with a 5xx) is an SLO breach.
	DefaultSLOLatency = 500 * time.Millisecond
	// DefaultSLOBudget is the tolerated breach ratio (1%): the burn-rate
	// gauge reports observed breach ratio divided by this budget, so
	// burn rate > 1 means the error budget is being consumed faster than
	// it refills.
	DefaultSLOBudget = 0.01
)

// reqInfo is the per-request carrier threaded through the handler chain
// via context: the middleware creates it, handlers fill it in, and the
// middleware turns it into the access-log record, the SLO counters, and
// the root span's attributes on the way out.
type reqInfo struct {
	span      *obs.TraceSpan // root server.request span (nil when tracing off)
	codec     string
	op        string
	ops       *opMetrics // the codec/op's series; nil until the route is known
	bytesIn   int
	cacheTier string // "hit", "miss", "bypass", or "" before the cache decision
	breaker   string // breaker state observed at the admission decision
	gateWait  time.Duration
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's carrier, or nil outside the traced
// path (so handler instrumentation is nil-safe by construction).
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusRecorder captures the status code and body bytes a handler
// writes, for the access log and SLO accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// metrics are the server's instruments, bound once in New. Binding is
// also registration: every series here appears at zero on the first
// scrape instead of popping into existence mid-run (a rate() over a
// counter needs its zero point). Series that only exist once something
// goes wrong (server.errors.*, server.cache.bypass, server.codec.retries)
// stay out of it and are looked up at the event, so a clean run's
// snapshot never shows them; armed fault points are registered by
// fault.Registry.AttachObs.
type metrics struct {
	requests, bytesIn, bytesOut   *obs.Counter
	executions, flightShared      *obs.Counter
	notModified                   *obs.Counter
	breakerRejected, breakerTrips *obs.Counter
	latency                       *obs.Histogram
	ops                           map[opKey]*opMetrics
}

// opKey names one codec/op pair ("lz77"/"compress", "pages"/"put").
type opKey struct{ codec, op string }

// opMetrics are one codec/op pair's request, SLO and breaker series.
type opMetrics struct {
	key       string // "lz77/compress": the breaker's /healthz name
	requests  *obs.Counter
	sloGood   *obs.Counter
	sloBreach *obs.Counter
	burnRate  *obs.Gauge
	breaker   *obs.Gauge // nil for the page store, which has no breaker
}

// bindMetrics resolves every server series on reg, the page-store
// operations only when a store is mounted.
func bindMetrics(reg *obs.Registry, pages bool) metrics {
	m := metrics{
		requests:        reg.Counter("server.requests"),
		bytesIn:         reg.Counter("server.bytes_in"),
		bytesOut:        reg.Counter("server.bytes_out"),
		executions:      reg.Counter("server.codec.executions"),
		flightShared:    reg.Counter("server.flight.shared"),
		notModified:     reg.Counter("server.http.not_modified"),
		breakerRejected: reg.Counter("server.breaker.rejected"),
		breakerTrips:    reg.Counter("server.breaker.trips"),
		latency:         reg.Histogram("server.request_latency_us"),
		ops:             map[opKey]*opMetrics{},
	}
	// The cache series belong to whichever backend hangs off the
	// server.cache prefix; registering them here keeps them on the
	// surface for a disk, tiered or disabled cache too.
	for _, n := range []string{"hits", "misses", "evictions"} {
		reg.Counter("server.cache." + n)
	}
	reg.Gauge("server.cache.bytes")
	reg.Gauge("server.cache.entries")
	bind := func(codec, op string) *opMetrics {
		key := codec + "." + op
		om := &opMetrics{
			key:       codec + "/" + op,
			requests:  reg.Counter("server.codec." + key),
			sloGood:   reg.Counter("server.slo." + key + ".good"),
			sloBreach: reg.Counter("server.slo." + key + ".breach"),
			burnRate:  reg.Gauge("server.slo." + key + ".burn_rate"),
		}
		m.ops[opKey{codec, op}] = om
		return om
	}
	for _, name := range codec.Names() {
		for _, op := range []string{"compress", "decompress"} {
			bind(name, op).breaker = reg.Gauge("server.breaker." + name + "." + op + ".state")
		}
	}
	if pages {
		bind("pages", "put")
		bind("pages", "get")
	}
	return m
}

// finishRequest closes out one /v1 request: latency histogram (with the
// trace ID as exemplar), SLO counters and burn rate, root-span
// attributes, and the access-log record. Runs for every /v1 request,
// success or failure.
func (s *Server) finishRequest(ri *reqInfo, rec *statusRecorder, lat time.Duration) {
	latUS := lat.Microseconds()
	s.m.latency.ObserveExemplar(latUS, ri.span.TraceIDString())

	if om := ri.ops; om != nil {
		if (s.sloLatency > 0 && lat > s.sloLatency) || rec.status >= 500 {
			om.sloBreach.Inc()
		} else {
			om.sloGood.Inc()
		}
		good, bad := om.sloGood.Value(), om.sloBreach.Value()
		if total := good + bad; total > 0 {
			ratio := float64(bad) / float64(total)
			om.burnRate.Set(ratio / DefaultSLOBudget)
		}
	}

	if sp := ri.span; sp != nil {
		sp.SetAttr("codec", ri.codec)
		sp.SetAttr("op", ri.op)
		sp.SetAttr("status", rec.status)
		sp.SetAttr("bytes_in", ri.bytesIn)
		sp.SetAttr("bytes_out", rec.bytes)
		if ri.cacheTier != "" {
			sp.SetAttr("cache", ri.cacheTier)
		}
		sp.End()
	}

	if s.accessSink != nil {
		s.accessSink.Emit("access", s.simSteps.Load(), map[string]any{
			"trace":        ri.span.TraceIDString(),
			"codec":        ri.codec,
			"op":           ri.op,
			"status":       rec.status,
			"bytes_in":     ri.bytesIn,
			"bytes_out":    rec.bytes,
			"sim_steps":    s.simSteps.Load(),
			"wall_us":      latUS,
			"cache":        ri.cacheTier,
			"breaker":      ri.breaker,
			"gate_wait_us": ri.gateWait.Microseconds(),
		})
	}
}
