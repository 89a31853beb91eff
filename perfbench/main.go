// Command perfbench is the repository's benchmark: one command that runs
// a named workload from a seed, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its standard output. README.md in this directory gives
// the workloads, the metrics and the layer each one stands for.
//
// Run it from the repository root through the wrapper, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"serve-hot":   func(c *config) (*outcome, error) { return runServe(c, serveHot()) },
	"serve-cold":  func(c *config) (*outcome, error) { return runServe(c, serveCold()) },
	"paper-quick": runPaperQuick,
	"taint-scan":  runTaintScan,
}

// endToEnd lists the metrics a --trace 0 run prints. p99_ms is measured
// too but only reported on the report line: on 2 shared vCPUs some runs
// of serve-hot raise every percentile above the median 1.5 to 3 times,
// so its run-to-run spread (about 1.0 over ten seeds) is far beyond any
// bound a change could be held to.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer lists the metrics a --trace 1 run prints, with their units. A
// workload that does not exercise a layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"server.request.self_us.p50", "us"},
	{"server.request.self_us.p99", "us"},
	{"server.cache.lookup_us.p50", "us"},
	{"server.cache.lookup_us.p99", "us"},
	{"server.cache.hit_ratio", "frac"},
	{"http.overhead_us.p50", "us"},
	{"server.codec.run_us.lz77.compress.p50", "us"},
	{"server.codec.run_us.lz77.decompress.p50", "us"},
	{"server.codec.run_us.lzw.compress.p50", "us"},
	{"server.codec.run_us.lzw.decompress.p50", "us"},
	{"server.codec.run_us.bwt.compress.p50", "us"},
	{"server.codec.run_us.bwt.decompress.p50", "us"},
	{"server.codec.executions_per_req", "count"},
	{"server.cache.store_us.p50", "us"},
	{"server.cache.evictions_per_store", "count"},
	{"server.pages.run_us.p50", "us"},
	{"server.gate.wait_us.p50", "us"},
	{"server.gate.wait_us.p99", "us"},
	{"server.admission.shed", "count"},
	{"loadgen.late_us.p99", "us"},
	{"tracing.overhead_frac", "frac"},
	{"exp.fig2_s", "s"},
	{"exp.fig3_s", "s"},
	{"exp.fig4_s", "s"},
	{"exp.aes_s", "s"},
	{"exp.memcpy_s", "s"},
	{"exp.tools_s", "s"},
	{"exp.survey_s", "s"},
	{"exp.sgx_s", "s"},
	{"exp.sgx-ablate_s", "s"},
	{"exp.sgx-all-gadgets_s", "s"},
	{"exp.mitigation_s", "s"},
	{"exp.fig6_s", "s"},
	{"exp.fig7_s", "s"},
	{"exp.fig8_s", "s"},
	{"exp.pagestore_s", "s"},
	{"cache.accesses", "count"},
	{"vm.instructions", "count"},
	{"sgx.faults", "count"},
	{"nn.epochs", "count"},
	{"fp.samples", "count"},
	{"pagestore.stores", "count"},
	{"pp.probes", "count"},
	{"taint.zlib_s", "s"},
	{"taint.lzw_s", "s"},
	{"taint.bzip2_s", "s"},
	{"taint.aes_s", "s"},
	{"taint.memcpy_s", "s"},
	{"core.analyze_s", "s"},
	{"vm.run_s", "s"},
	{"core.overhead_x", "x"},
	{"core.gadgets", "count"},
}

type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	root      string // repository root, the directory the command runs from
	serverBin string
	workDir   string // scratch files of this run, removed at exit
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	v       verifier
	metrics map[string]metric
	samples map[string]summary
	setups  []float64 // one duration per setup repetition, seconds
	digest  string
	checks  map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]summary{}, checks: map[string]any{}}
}

// e2e records an end-to-end metric and, when given, the samples behind
// it.
func (o *outcome) e2e(name, unit string, value float64, samples []float64) {
	o.metrics[name] = metric{value, unit}
	if len(samples) > 0 {
		o.samples[name] = summarize(samples)
	}
}

// tailMetric records a tail latency with the percentile it really is and
// the sample count behind it.
func (o *outcome) tailMetric(name, unit string, value, pct float64, n int) {
	o.metrics[name] = metric{value, unit}
	o.samples[name] = summary{N: n, Median: value, Q1: value, Q3: value, Pct: pct}
}

func (o *outcome) layer(name, unit string, value float64) { o.metrics[name] = metric{value, unit} }

// layerSamples records a per-layer time as the median of its samples.
func (o *outcome) layerSamples(name, unit string, xs []float64) {
	o.e2e(name, unit, median(xs), xs)
}

// layerQuantile records the q-quantile of xs (q 0.99 meaning the tail
// rule of tail).
func (o *outcome) layerQuantile(name, unit string, xs []float64, q float64) {
	s := sortedCopy(xs)
	if q >= 0.99 {
		v, pct := tail(s)
		o.tailMetric(name, unit, v, pct, len(s))
		return
	}
	o.e2e(name, unit, quantile(s, q), xs)
}

// result is the command's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		cfg     config
		seconds = flag.Int("seconds", 10, "how long the run measures, in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-hot, serve-cold, paper-quick or taint-scan")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	flag.StringVar(&cfg.serverBin, "server", "", "zipserverd binary the serve workloads start")
	flag.Parse()
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if strings.HasPrefix(cfg.workload, "serve-") && cfg.serverBin == "" {
		return 2, errors.New("the serve workloads need --server")
	}
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	var err error
	if cfg.root, err = os.Getwd(); err != nil {
		return 1, err
	}
	runs := filepath.Join(cfg.root, ".bench_build", "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return 1, err
	}
	if cfg.workDir, err = os.MkdirTemp(runs, cfg.workload+"-*"); err != nil {
		return 1, err
	}
	defer os.RemoveAll(cfg.workDir)

	start := time.Now()
	out, err := runWorkload(&cfg)
	if err != nil {
		return 1, err
	}
	attempted, failed := out.v.counts()
	out.e2e("setup_s", "s", median(out.setups), out.setups)
	if attempted > 0 {
		out.e2e("ok_frac", "frac", 1-float64(failed)/float64(attempted), nil)
	}
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for _, m := range perLayer {
			got, ok := out.metrics[m.name]
			if !ok {
				got = metric{0, m.unit}
			}
			res.Metrics[m.name] = got
		}
	} else {
		for _, m := range endToEnd {
			got, ok := out.metrics[m.name]
			if !ok {
				return 1, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
			}
			res.Metrics[m.name] = got
		}
	}
	for _, n := range out.v.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", n)
	}
	report := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"elapsed_s":  time.Since(start).Seconds(),
		"digest":     out.digest,
		"fail_frac":  float64(failed) / float64(max(attempted, 1)),
		"samples":    out.samples,
		"checks":     out.checks,
		"provenance": provenance(cfg.root),
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return 0, nil
}

// provenance names the code and the machine a result came from.
func provenance(root string) map[string]any {
	return map[string]any{
		"commit":        commit(root),
		"source_sha256": sourceDigest(root),
		"go":            runtime.Version(),
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
	}
}

// commit is the checkout's git revision, or "unknown" where root is not
// a git work tree (source_sha256 still identifies the code). git runs
// only on root's own .git, so nothing outside the checkout is read.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping dot-directories such as the build output.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	d := newOutputDigest()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		d.add(rel, b)
	}
	return d.sum()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
