package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/par"
)

// conns is the client side's concurrency: two connections, each with
// its own worker, or one on a single core. The load generator never
// takes more than the machine's cores from the server it measures, and
// the load has the same shape on any larger machine.
func conns() int {
	n := par.Parallelism(0)
	if n > 2 {
		n = 2
	}
	return n
}

// probe is the client for the untimed start-up and /metrics requests; it
// keeps no connection open to a server that is about to stop.
var probe = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// server is one zipserverd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{}
	err    error // cmd.Wait's result, valid once done is closed
	stderr bytes.Buffer
}

// startServer boots zipserverd on an ephemeral loopback port and waits
// until /healthz answers. Timed runs pass traceFile "" and run with
// tracing off, since the binary traces by default.
func startServer(bin, dir, traceFile string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // absent on the first boot; the poll below needs it gone
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-pagestore", "-drain", "5s"}
	if traceFile == "" {
		args = append(args, "-trace=false")
	} else {
		args = append(args, "-trace=true", "-trace-file", traceFile)
	}
	s := &server{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// A benchmark killed mid-run must not leave its server behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start zipserverd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.IndexByte(b, ':') > 0 {
			s.base = "http://" + string(b)
			if resp, err := probe.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("zipserverd exited during start-up: %v: %s", s.err, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("zipserverd did not become ready within 20s")
		}
	}
}

// pid is the server's process id, for /proc reads.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop shuts the server down gracefully, killing it if the drain hangs,
// and returns once the process has exited.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt) // an already-exited process is reaped below
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("zipserverd ignored SIGINT for 15s and was killed")
	}
	if s.err != nil {
		return fmt.Errorf("zipserverd: %v: %s", s.err, s.stderr.String())
	}
	return nil
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	// Linux reports these in USER_HZ ticks, fixed at 100 per second by
	// its ABI.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// client sends the benchmark's requests. Each worker speaks HTTP/1.1 on
// its own keep-alive connection from its own goroutine: net/http's
// transport would add two goroutines and their hand-offs per connection
// to every request, on the same two cores as the server it measures.
// When traced, each request carries a traceparent naming a client span,
// so the server's span tree hangs under it.
type client struct {
	addr   string // host:port
	base   string // http://host:port, for the untimed scrapes
	traced bool
	runID  uint64
	ids    *atomic.Uint64 // shared by a run's clients, so no two requests share a span id
}

func newClient(base string, traced bool, runID uint64, ids *atomic.Uint64) *client {
	return &client{addr: strings.TrimPrefix(base, "http://"), base: base, traced: traced, runID: runID, ids: ids}
}

// clientSpan is the benchmark's record of one traced request.
type clientSpan struct {
	trace, span string
	wall        time.Duration
}

// do sends one request on w's connection and reads the whole response
// into one of w's two buffers, so the returned bytes stay valid until
// the call after next: long enough to send one response back as the
// next request's body.
func (c *client) do(w *worker, method, path string, body []byte) (int, []byte, error) {
	if w.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		w.conn, w.br, w.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	}
	var cs clientSpan
	fmt.Fprintf(w.bw, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", method, path, c.addr, len(body))
	if c.traced {
		var tid [16]byte
		var sid [8]byte
		n := c.ids.Add(1)
		binary.BigEndian.PutUint64(tid[:8], c.runID)
		binary.BigEndian.PutUint64(tid[8:], n)
		binary.BigEndian.PutUint64(sid[:], n)
		cs.trace, cs.span = hex.EncodeToString(tid[:]), hex.EncodeToString(sid[:])
		fmt.Fprintf(w.bw, "Traceparent: 00-%s-%s-01\r\n", cs.trace, cs.span)
	}
	w.bw.WriteString("\r\n")
	w.bw.Write(body)
	start := time.Now()
	status, got, err := w.exchange()
	if err != nil {
		w.close() // the next request redials
		return 0, nil, err
	}
	if c.traced {
		cs.wall = time.Since(start)
		w.spans = append(w.spans, cs)
	}
	return status, got, nil
}

// exchange flushes the buffered request and reads its response.
func (w *worker) exchange() (int, []byte, error) {
	if err := w.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return 0, nil, err
	}
	buf := &w.bufs[w.turn]
	w.turn ^= 1
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		w.close()
	}
	return resp.StatusCode, buf.Bytes(), err
}

// worker is one load-generating goroutine's connection and record.
type worker struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	bufs  [2]bytes.Buffer // response buffers, reused so the generator barely allocates
	turn  int
	lat   []float64 // per request, ms from its due send time
	late  []float64 // open loop: µs the send ran behind schedule
	ends  []time.Time
	spans []clientSpan
}

func (w *worker) close() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// finish records one completed request that was due at due.
func (w *worker) finish(due time.Time) time.Time {
	now := time.Now()
	w.lat = append(w.lat, float64(now.Sub(due))/float64(time.Millisecond))
	w.ends = append(w.ends, now)
	return now
}

// opFunc executes operation i, due at due, recording each of its
// requests on w.
type opFunc func(w *worker, i int64, due time.Time)

// phase is the merged record of one load phase.
type phase struct {
	worker
	elapsed time.Duration
}

func (p *phase) rps() float64 { return float64(len(p.lat)) / p.elapsed.Seconds() }

// batchWalls splits the phase's completions into consecutive batches of
// n requests and returns each batch's wall time in seconds.
func (p *phase) batchWalls(start time.Time, n int) []float64 {
	ends := append([]time.Time(nil), p.ends...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var out []float64
	prev := start
	for i := n - 1; i < len(ends); i += n {
		out = append(out, ends[i].Sub(prev).Seconds())
		prev = ends[i]
	}
	return out
}

// tailWindow is how many requests one p99 sample covers: the smallest
// count whose 99th percentile has ten requests beyond it.
const tailWindow = 1000

// windowTails splits the phase's requests, in completion order, into
// consecutive windows of n and returns each window's tail latency (see
// tail) with the percentile it is. p99_ms is their median, so one stall
// moves one window's sample instead of the run's figure. A phase shorter
// than one window yields a single sample over all its requests.
func (p *phase) windowTails(n int) ([]float64, float64) {
	idx := make([]int, len(p.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.ends[idx[a]].Before(p.ends[idx[b]]) })
	if len(idx) < n {
		n = len(idx)
	}
	var out []float64
	var pct float64
	for lo := 0; lo+n <= len(idx) && n > 0; lo += n {
		w := make([]float64, n)
		for k := range w {
			w[k] = p.lat[idx[lo+k]]
		}
		var v float64
		v, pct = tail(sortedCopy(w))
		out = append(out, v)
	}
	return out, pct
}

// sleepUntil blocks until about t. time.Sleep wakes up to a millisecond
// late on Linux, since the runtime's timers ride a millisecond-resolution
// poll, and that would be most of a cached request's latency. nanosleep
// blocks the calling thread and wakes within the kernel's 50 µs timer
// slack, which the requested duration leaves room for.
func sleepUntil(t time.Time) {
	const slack = 50 * time.Microsecond
	if d := time.Until(t) - slack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early; lateness is measured
	}
}

// runPhase drives op from conns() workers for d. A closed loop (rate 0)
// starts each worker's next operation when its last one completes; an
// open loop makes operation i due at start + i/rate whatever the server
// does, so a stall delays every later request and the wait is counted.
func runPhase(d time.Duration, rate float64, next *atomic.Int64, op opFunc) *phase {
	n := conns()
	ws := make([]worker, n)
	start := time.Now()
	end := start.Add(d)
	base := next.Load()
	var wg sync.WaitGroup
	for k := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i-base) / rate * float64(time.Second)))
					if due.After(end) {
						return
					}
					sleepUntil(due)
					w.late = append(w.late, float64(time.Since(due))/float64(time.Microsecond))
				} else if !due.Before(end) {
					return
				}
				op(w, i, due)
			}
		}(&ws[k])
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	for i := range ws {
		w := &ws[i]
		w.close()
		p.lat = append(p.lat, w.lat...)
		p.late = append(p.late, w.late...)
		p.ends = append(p.ends, w.ends...)
		p.spans = append(p.spans, w.spans...)
	}
	return p
}

// serveSpec is what differs between the two serve workloads.
type serveSpec struct {
	// prepare builds the workload's inputs and expected outputs once per
	// run, and may describe them on out's report; setup then readies one
	// fresh server with them.
	prepare func(seed int64, out *outcome) error
	setup   func(c *client, v *verifier, d *outputDigest) error
	op      func(c *client, v *verifier) opFunc
	// openRate is the open-loop phase's fixed rate in operations per
	// second, about half the closed-loop capacity measured on 2 cores
	// when the benchmark was written.
	openRate float64
	// batch is the request count whose closed-loop wall time is wall_s.
	batch int
}

// setupRuns is how many times a run boots and readies a server; setup_s
// is their median and the last one is measured.
const setupRuns = 3

// runServe measures one serve workload against real zipserverd
// processes.
func runServe(cfg *config, spec serveSpec) (*outcome, error) {
	out := newOutcome()
	if err := spec.prepare(cfg.seed, out); err != nil {
		return nil, err
	}
	// next numbers the operations of every phase of the run, so no two
	// phases repeat one: serve-cold's bodies are unique per number.
	var next atomic.Int64
	var spanIDs atomic.Uint64
	boot := func(traceFile string) (*server, *client, error) {
		var srv *server
		var cl *client
		var setups []float64
		var digest string
		for k := 0; k < setupRuns; k++ {
			if srv != nil {
				if err := srv.stop(); err != nil {
					return nil, nil, err
				}
			}
			start := time.Now()
			var err error
			if srv, err = startServer(cfg.serverBin, cfg.workDir, traceFile); err != nil {
				return nil, nil, err
			}
			cl = newClient(srv.base, traceFile != "", uint64(cfg.seed), &spanIDs)
			d := newOutputDigest()
			if err := spec.setup(cl, &out.v, d); err != nil {
				srv.stop()
				return nil, nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			// Each boot is a fresh process fed the same inputs: their
			// outputs must agree.
			sum := d.sum()
			out.v.ok(digest == "" || sum == digest, "setup %d output digest %s differs from setup 0's %s", k, sum, digest)
			digest = sum
		}
		out.setups = append(out.setups, setups...)
		out.digest = digest
		return srv, cl, nil
	}
	// The open loop gets the larger share: its tail needs the samples.
	closedFor := cfg.seconds * 2 / 5
	openFor := cfg.seconds - closedFor
	if cfg.trace {
		closedFor = cfg.seconds / 3
		openFor = closedFor
	}

	// The timed server runs with tracing off. In the traced run it gives
	// the untraced closed-loop rate tracing.overhead_frac compares to.
	srv, cl, err := boot("")
	if err != nil {
		return nil, err
	}
	defer srv.stop() // on error paths; the success path stops it below and checks
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	closedStart := time.Now()
	closed := runPhase(closedFor, 0, &next, spec.op(cl, &out.v))
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	var open *phase
	if !cfg.trace {
		open = runPhase(openFor, spec.openRate, &next, spec.op(cl, &out.v))
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.pid()))
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if !cfg.trace {
		walls := closed.batchWalls(closedStart, spec.batch)
		lat := sortedCopy(open.lat)
		tails, pct := open.windowTails(tailWindow)
		out.e2e("wall_s", "s", median(walls), walls)
		out.e2e("rps", "1/s", closed.rps(), nil)
		out.e2e("p50_ms", "ms", quantile(lat, 0.5), open.lat)
		out.e2e("p99_ms", "ms", median(tails), tails)
		out.samples["p99_ms"] = withPct(out.samples["p99_ms"], pct)
		out.e2e("cpu_us_per_req", "us", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(len(closed.lat)), nil)
		out.e2e("peak_rss_mb", "MB", rss, nil)
		return out, nil
	}

	// Traced run: a second server writes every span to a trace file, and
	// the same closed-then-open load is replayed against it.
	traceFile := filepath.Join(cfg.workDir, "spans.ndjson")
	tsrv, tcl, err := boot(traceFile)
	if err != nil {
		return nil, err
	}
	defer tsrv.stop()
	before, err := scrape(tcl)
	if err != nil {
		return nil, err
	}
	tclosed := runPhase(closedFor, 0, &next, spec.op(tcl, &out.v))
	topen := runPhase(openFor, spec.openRate, &next, spec.op(tcl, &out.v))
	after, err := scrape(tcl)
	if err != nil {
		return nil, err
	}
	if err := tsrv.stop(); err != nil {
		return nil, err
	}
	spans := append(tclosed.spans, topen.spans...)
	if err := serveLayers(out, traceFile, spans, before, after); err != nil {
		return nil, err
	}
	late := sortedCopy(topen.late)
	lateP99, _ := tail(late)
	out.layer("loadgen.late_us.p99", "us", lateP99)
	out.layer("tracing.overhead_frac", "frac", 1-tclosed.rps()/closed.rps())
	return out, nil
}

// snapshot is the part of zipserverd's /metrics document the benchmark
// reads.
type snapshot struct {
	Counters map[string]float64 `json:"counters"`
}

func scrape(c *client) (*snapshot, error) {
	resp, err := probe.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &s, nil
}

// serveHot: a few hundred distinct requests, all cached during setup,
// so every timed request is a response-cache hit.
func serveHot() serveSpec {
	var items []hotItem
	var seq []int32
	return serveSpec{
		prepare: func(seed int64, out *outcome) error {
			var err error
			if items, err = makeHotItems(seed); err != nil {
				return err
			}
			seq = hotSequence(seed, 1<<18)
			out.checks["serve_hot.mix"] = hotMix(items, seq)
			return nil
		},
		// Warm every item once, in item order, so the timed phases see
		// only hits; the responses are the workload's digested outputs.
		setup: func(c *client, v *verifier, d *outputDigest) error {
			var w worker
			defer w.close()
			for i, it := range items {
				path := "/v1/" + it.codec + "/" + it.op
				status, got, err := c.do(&w, "POST", path, it.body)
				if !v.response(path, err, status, got, it.want) {
					return fmt.Errorf("warming item %d: %s", i, v.summary())
				}
				d.add(path, got)
			}
			return nil
		},
		op: func(c *client, v *verifier) opFunc {
			return func(w *worker, i int64, due time.Time) {
				it := &items[seq[i%int64(len(seq))]]
				path := "/v1/" + it.codec + "/" + it.op
				status, got, err := c.do(w, "POST", path, it.body)
				w.finish(due)
				v.response(path, err, status, got, it.want)
			}
		},
		openRate: 9000,
		batch:    1000,
	}
}

const (
	// fillTarget is how many response bytes serve-cold's setup stores:
	// more than zipserverd's default 64 MiB response cache holds.
	fillTarget = 72 << 20
	// canaryOps is how many serve-cold operations setup runs in order;
	// their responses are the workload's digested outputs.
	canaryOps = 32
)

// fillerSizes are the decompressed sizes of the responses serve-cold's
// setup stores to fill the response cache. They are drawn from the same
// 256 B to 16 KiB log-uniform range as the timed bodies, so the cache
// fills with entries the size of the ones the timed stores make, and each
// of those evicts about one entry from the first timed request. The draw
// is fixed, so the seed does not change the cost of setup.
func fillerSizes() []int {
	rng := rand.New(rand.NewSource(1))
	var out []int
	for total := 0; total <= fillTarget; {
		n := logUniform(rng, minBody, maxBody)
		out = append(out, n)
		total += n
	}
	return out
}

// fillerPlain is filler k's decompressed bytes: a nonce, then zeros.
func fillerPlain(k, n int) []byte {
	b := make([]byte, n)
	copy(b, fmt.Sprintf("filler#%016x#", k))
	return b
}

// serveCold: every body unique, so each request runs a codec or the page
// store and stores into a full cache.
func serveCold() serveSpec {
	var gen *coldGen
	sizes := fillerSizes()
	var packed [][]byte // lz77 compressions of the fillers
	return serveSpec{
		prepare: func(seed int64, _ *outcome) error {
			gen = newColdGen(seed)
			lz77, _ := codec.Lookup("lz77")
			packed = make([][]byte, len(sizes))
			for k, n := range sizes {
				var err error
				if packed[k], err = lz77.Compress(fillerPlain(k, n)); err != nil {
					return err
				}
			}
			return nil
		},
		setup: func(c *client, v *verifier, d *outputDigest) error {
			var w worker
			defer w.close()
			for i := int64(0); i < canaryOps; i++ {
				if !coldPair(c, v, &w, gen.op(-1-i), time.Now(), d) {
					return fmt.Errorf("canary operation %d: %s", i, v.summary())
				}
			}
			// Fill the response cache from every connection: a small
			// decompress request stores a response of the filler's size.
			var next atomic.Int64
			errc := make(chan error, conns())
			for j := 0; j < conns(); j++ {
				go func() {
					var w worker
					defer w.close()
					for k := int(next.Add(1) - 1); k < len(sizes); k = int(next.Add(1) - 1) {
						status, got, err := c.do(&w, "POST", "/v1/lz77/decompress", packed[k])
						if !v.response("filler", err, status, got, fillerPlain(k, sizes[k])) {
							errc <- fmt.Errorf("filling the cache: %s", v.summary())
							return
						}
					}
					errc <- nil
				}()
			}
			var err error
			for j := 0; j < conns(); j++ {
				err = errors.Join(err, <-errc)
			}
			return err
		},
		op: func(c *client, v *verifier) opFunc {
			return func(w *worker, i int64, due time.Time) {
				coldPair(c, v, w, gen.op(i), due, nil)
			}
		},
		openRate: 500, // 1000 requests per second: each operation sends 2
		batch:    200,
	}
}

// coldPair runs one serve-cold operation and checks it: the decompress
// of a compress response must give back the body, and a page GET must
// give back its PUT. d, when non-nil, receives the responses.
func coldPair(c *client, v *verifier, w *worker, op coldOp, due time.Time, d *outputDigest) bool {
	var first, second string
	var firstMethod, secondMethod = "POST", "POST"
	if op.page != "" {
		first, second = "/v1/pages/"+op.page, "/v1/pages/"+op.page
		firstMethod, secondMethod = "PUT", "GET"
	} else {
		first, second = "/v1/"+op.codec+"/compress", "/v1/"+op.codec+"/decompress"
	}
	status, mid, err := c.do(w, firstMethod, first, op.body)
	t := w.finish(due)
	if !v.response(firstMethod+" "+first, err, status, mid, nil) {
		return false
	}
	next := mid
	if op.page != "" {
		next = nil
	}
	status, got, err := c.do(w, secondMethod, second, next)
	w.finish(t)
	if !v.response(secondMethod+" "+second, err, status, got, op.body) {
		return false
	}
	if d != nil {
		d.add(first, mid)
		d.add(second, got)
	}
	return true
}
