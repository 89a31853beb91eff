package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanRec is one "span" line of zipserverd's -trace-file NDJSON.
type spanRec struct {
	Ev     string         `json:"ev"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent"`
	WallNS int64          `json:"wall_ns"`
	Attrs  map[string]any `json:"attrs"`
}

func readSpans(path string) ([]*spanRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*spanRec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r spanRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Ev == "span" {
			out = append(out, &r)
		}
	}
	return out, sc.Err()
}

// Server span names the per-layer metrics are read from.
const (
	spanRequest = "server.request"
	spanLookup  = "server.cache.lookup"
	spanStore   = "server.cache.store"
	spanGate    = "server.gate.wait"
	spanCodec   = "server.codec.run"
	spanPages   = "server.pages.run"
)

// selfTimes is the per-span-name self time (µs) of every server tree that
// hangs under one of the benchmark's client spans, with the checks that
// the trees are whole.
type selfTimes struct {
	byName   map[string][]float64
	codec    map[string][]float64 // server.codec.run self µs by "<codec>.<op>"
	overhead []float64            // client RTT minus server.request, µs
	joined   int                  // client spans whose server.request was found
	// overlapping counts joined trees in which some span's children last
	// longer, summed, than the span itself: children that ran at the same
	// time, or outlived their parent, so the self times are not exact.
	overlapping int
}

// overlapSlackNS is how far a span's children may overrun it, summed,
// before its tree counts as overlapping. Children that run one after
// another inside their parent never overrun it on a monotonic clock.
const overlapSlackNS = 1000

// computeSelfTimes joins server spans to client spans and takes each
// span's self time: its duration minus the part its children cover. The
// trace records durations but not start times, so the covered part is
// the children's summed durations capped at the parent's. That is exact
// only when the children run one after another, as on the server's
// request path; a tree where they do not is counted in overlapping.
func computeSelfTimes(recs []*spanRec, clients []clientSpan) *selfTimes {
	children := map[string][]*spanRec{}
	for _, r := range recs {
		if r.Parent != "" {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	st := &selfTimes{byName: map[string][]float64{}, codec: map[string][]float64{}}
	// walk records the self times of r's subtree and reports whether
	// every span in it holds its children.
	var walk func(r *spanRec, root *spanRec) bool
	walk = func(r *spanRec, root *spanRec) bool {
		var covered int64
		whole := true
		for _, c := range children[r.Span] {
			covered += c.WallNS
			whole = walk(c, root) && whole
		}
		self := float64(r.WallNS-min(covered, r.WallNS)) / 1e3
		st.byName[r.Name] = append(st.byName[r.Name], self)
		if r.Name == spanCodec {
			key := fmt.Sprint(root.Attrs["codec"], ".", root.Attrs["op"])
			st.codec[key] = append(st.codec[key], self)
		}
		return whole && covered <= r.WallNS+overlapSlackNS
	}
	requests := map[string]*spanRec{}
	for _, r := range recs {
		if r.Name == spanRequest && r.Parent != "" {
			requests[r.Parent] = r
		}
	}
	for _, c := range clients {
		root, ok := requests[c.span]
		if !ok || root.Trace != c.trace {
			continue
		}
		st.joined++
		if !walk(root, root) {
			st.overlapping++
		}
		st.overhead = append(st.overhead, float64(c.wall-time.Duration(root.WallNS))/float64(time.Microsecond))
	}
	return st
}

// serveLayers derives the serve workloads' per-layer metrics from the
// traced server's span file and its /metrics counters before and after
// the traced phases.
func serveLayers(out *outcome, traceFile string, clients []clientSpan, before, after *snapshot) error {
	recs, err := readSpans(traceFile)
	if err != nil {
		return err
	}
	st := computeSelfTimes(recs, clients)
	out.v.ok(st.joined == len(clients), "trace: %d of %d client requests found their server.request span", st.joined, len(clients))
	out.v.ok(st.overlapping == 0, "trace: in %d of %d server trees a span's children last longer than the span, so self times are not exact", st.overlapping, st.joined)
	out.checks["trace.joined"] = st.joined
	out.checks["trace.overlapping"] = st.overlapping

	p := func(name string, xs []float64, q float64) {
		out.layerQuantile(name, "us", xs, q)
	}
	p("server.request.self_us.p50", st.byName[spanRequest], 0.5)
	p("server.request.self_us.p99", st.byName[spanRequest], 0.99)
	p("server.cache.lookup_us.p50", st.byName[spanLookup], 0.5)
	p("server.cache.lookup_us.p99", st.byName[spanLookup], 0.99)
	p("http.overhead_us.p50", st.overhead, 0.5)
	for _, c := range []string{"lz77", "lzw", "bwt"} {
		for _, op := range []string{"compress", "decompress"} {
			p("server.codec.run_us."+c+"."+op+".p50", st.codec[c+"."+op], 0.5)
		}
	}
	p("server.cache.store_us.p50", st.byName[spanStore], 0.5)
	p("server.pages.run_us.p50", st.byName[spanPages], 0.5)
	p("server.gate.wait_us.p50", st.byName[spanGate], 0.5)
	p("server.gate.wait_us.p99", st.byName[spanGate], 0.99)

	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := delta("server.cache.hits"), delta("server.cache.misses")
	out.layer("server.cache.hit_ratio", "frac", ratio(hits, hits+misses))
	var codecReqs float64
	for _, c := range []string{"lz77", "lzw", "bwt"} {
		codecReqs += delta("server.codec."+c+".compress") + delta("server.codec."+c+".decompress")
	}
	out.layer("server.codec.executions_per_req", "count", ratio(delta("server.codec.executions"), codecReqs))
	out.layer("server.cache.evictions_per_store", "count", ratio(delta("server.cache.evictions"), delta(spanStore+".calls")))
	out.layer("server.admission.shed", "count", delta("server.admission.shed"))
	return nil
}
