package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/zipchannel/zipchannel/internal/core"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/experiments"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// The research workloads do a fixed amount of work per run — passes
// derived from --seconds and a nominal pass time measured on 2 cores —
// so a faster commit finishes sooner instead of running more passes,
// and every run of a workload reports over the same sample count.
const (
	paperPassNominal = 6 * time.Second
	taintPassNominal = 700 * time.Millisecond
	// taintWarmBytes is the input prefix setup analyses each victim on,
	// so the engine's compiled code and block transfer functions exist
	// before the timed passes.
	taintWarmBytes = 4 << 10
	// researchSetupRuns is how many times a run prepares its inputs;
	// setup_s is their median.
	researchSetupRuns = 25
)

func passes(seconds, nominal time.Duration) int {
	if n := int(seconds / nominal); n > 1 {
		return n
	}
	return 1
}

// cpuSelf is this process's user+system CPU time.
func cpuSelf() (time.Duration, error) { return procCPU(os.Getpid()) }

// timeSetup runs prepare once untimed, so the process has grown its heap
// before anything is timed, then researchSetupRuns times, recording each
// duration as a setup sample. Each starts from a collected heap, so one
// sample does not pay for the garbage of the one before.
func timeSetup(out *outcome, prepare func() error) error {
	for k := -1; k < researchSetupRuns; k++ {
		runtime.GC()
		start := time.Now()
		if err := prepare(); err != nil {
			return err
		}
		if k >= 0 {
			out.setups = append(out.setups, time.Since(start).Seconds())
		}
	}
	return nil
}

// passMetrics reports the end-to-end metrics of a pass-based workload:
// a pass is its operation, so latency, rate and CPU are per pass.
func passMetrics(out *outcome, walls []float64, cpu time.Duration) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	sorted := sortedCopy(walls)
	var total float64
	for _, w := range walls {
		total += w
	}
	p99, pct := tail(sorted)
	out.e2e("wall_s", "s", quantile(sorted, 0.5), walls)
	out.e2e("rps", "1/s", float64(len(walls))/total, nil)
	out.e2e("p50_ms", "ms", 1000*quantile(sorted, 0.5), nil)
	out.tailMetric("p99_ms", "ms", 1000*p99, pct, len(sorted))
	out.e2e("cpu_us_per_req", "us", float64(cpu)/float64(time.Microsecond)/float64(len(walls)), nil)
	out.e2e("peak_rss_mb", "MB", rss, nil)
	return nil
}

// Headline thresholds paper-quick checks, each the value a repository
// test pins for the same result.
var headlines = []struct {
	runner, metric string
	min            float64
	strict         bool
	pinnedBy       string
}{
	{"sgx", "bitAcc", 0.9, false, "internal/experiments/manifest_test.go"},
	{"pagestore", "byteAcc", 0.99, true, "internal/zipchannel/pagestore_attack_test.go"},
	{"pagestore", "jitterAcc", 0.99, true, "internal/zipchannel/pagestore_attack_test.go"},
}

// sgxGolden is the committed quick SGX manifest; the benchmark's must
// match it byte for byte.
const sgxGolden = "cmd/experiments/testdata/sgx-quick.json"

// paperCounters are the layer counters paper-quick reads from each
// runner's Ctx.Obs; cache.accesses is hits plus misses of the simulated
// LLC.
var paperCounters = []string{"cache.accesses", "vm.instructions", "sgx.faults", "nn.epochs", "fp.samples", "pagestore.stores", "pp.probes"}

// runPaperQuick runs every registered experiment's quick variant in
// registry order, one after another, each with an inner trial budget of
// the machine's cores.
//
// Every run uses the experiments' paper-pinned seeds (root seed 0), the
// configuration that regenerates the published figures, whatever the
// workload seed: at root seeds 1 to 8 the quick fig7, fig8 or pagestore
// runner rejects its own result (README.md lists which), so a re-seeded
// suite would not complete.
func runPaperQuick(cfg *config) (*outcome, error) {
	out := newOutcome()
	if err := timeSetup(out, func() error {
		// The inputs the runners draw on: every victim program assembled,
		// and the Fig 7 and Fig 8 corpora. A runner takes no inputs and
		// builds its own inside the timed pass, so these are discarded:
		// setup_s here stands for the cost of generating inputs, not for
		// any set-up the timed passes use.
		if len(victims.All()) == 0 || len(corpus.BrotliLike(0)) == 0 ||
			len(corpus.RepetitivenessSeries(0, 4096)) == 0 {
			return fmt.Errorf("empty experiment inputs")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(cfg.root, sgxGolden))
	if err != nil {
		return nil, err
	}
	runners := experiments.All()
	durs := map[string][]float64{}
	counts := map[string]float64{}
	var walls []float64
	var first []string // pass 0's manifest digests, in registry order
	cpu0, err := cpuSelf()
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < passes(cfg.seconds, paperPassNominal); pass++ {
		d := newOutputDigest()
		start := time.Now()
		for i, r := range runners {
			ec := &experiments.Ctx{Quick: true, Obs: obs.NewRegistry(), Parallelism: par.Parallelism(0)}
			t := time.Now()
			res, man, err := experiments.ExecuteCtx(r, ec)
			durs[r.Name] = append(durs[r.Name], time.Since(t).Seconds())
			if !out.v.ok(err == nil, "%s: %v", r.Name, err) {
				continue
			}
			doc, err := man.MarshalIndent()
			if err != nil {
				return nil, err
			}
			d.add(r.Name, doc)
			sum := sha256Hex(doc)
			if pass == 0 {
				first = append(first, sum)
				snap := man.Snapshot.Counters
				for _, name := range paperCounters {
					if name == "cache.accesses" {
						counts[name] += float64(snap["cache.hits"] + snap["cache.misses"])
					} else {
						counts[name] += float64(snap[name])
					}
				}
			} else if i < len(first) {
				out.v.ok(sum == first[i], "%s: pass %d manifest differs from pass 0's", r.Name, pass)
			}
			if pass > 0 {
				continue
			}
			for _, h := range headlines {
				if h.runner != r.Name {
					continue
				}
				got := res.Metrics[h.metric]
				met := got >= h.min
				if h.strict {
					met = got > h.min
				}
				out.v.ok(met, "%s %s = %.4f, below the %.2f %s pins", r.Name, h.metric, got, h.min, h.pinnedBy)
			}
			if r.Name == "sgx" {
				out.v.digest("sgx manifest vs "+sgxGolden, doc, sha256Hex(golden))
			}
		}
		walls = append(walls, time.Since(start).Seconds())
		if pass == 0 {
			out.digest = d.sum()
		}
	}
	cpu1, err := cpuSelf()
	if err != nil {
		return nil, err
	}
	if err := passMetrics(out, walls, cpu1-cpu0); err != nil {
		return nil, err
	}
	for _, r := range runners {
		out.layerSamples("exp."+r.Name+"_s", "s", durs[r.Name])
	}
	for _, name := range paperCounters {
		out.layer(name, "count", counts[name])
	}
	return out, nil
}

// taintRun is one victim's analysis (or bare run) in a taint-scan pass.
type taintRun struct {
	wall   time.Duration
	steps  uint64
	output []byte
	report *core.Report
}

// runVictim executes prog on input, under TaintChannel when analyze is
// set and uninstrumented otherwise.
func runVictim(prog *vmProgram, input []byte, analyze bool) (*taintRun, error) {
	start := time.Now()
	machine, err := vm.NewFlat(prog.p)
	if err != nil {
		return nil, err
	}
	machine.SetInput(input)
	var a *core.Analyzer
	if analyze {
		a = core.New(core.Config{MaxSamplesPerGadget: 2})
		a.Attach(machine)
	}
	if err := machine.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", prog.name, err)
	}
	run := &taintRun{steps: machine.Steps, output: machine.Output()}
	if a != nil {
		run.report = a.Report(prog.name)
	}
	run.wall = time.Since(start)
	return run, nil
}

// runTaintScan runs TaintChannel on each surveyed victim over a seeded
// 64 KiB input. The traced run also runs every input uninstrumented, for
// the tool's overhead over the bare VM.
func runTaintScan(cfg *config) (*outcome, error) {
	out := newOutcome()
	var progs []*vmProgram
	var inputs [][]byte
	if err := timeSetup(out, func() error {
		all := victims.All()
		progs, inputs = nil, nil
		for _, name := range taintVictims {
			p, ok := all[name]
			if !ok {
				return fmt.Errorf("victim %q not registered", name)
			}
			prog, input := &vmProgram{name, p}, taintInput(cfg.seed, name)
			if _, err := runVictim(prog, input[:taintWarmBytes], true); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			progs = append(progs, prog)
			inputs = append(inputs, input)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	per := map[string][]float64{}
	var walls, bare []float64
	var steps, gadgets float64
	var first []string
	cpu0, err := cpuSelf()
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < passes(cfg.seconds, taintPassNominal); pass++ {
		d := newOutputDigest()
		var wall, bareWall time.Duration
		for i, prog := range progs {
			run, err := runVictim(prog, inputs[i], true)
			if !out.v.ok(err == nil, "taint %v", err) {
				continue
			}
			wall += run.wall
			per[prog.name] = append(per[prog.name], run.wall.Seconds())
			text := []byte(run.report.String())
			d.add(prog.name, text)
			if pass == 0 {
				first = append(first, sha256Hex(text))
				steps += float64(run.steps)
				gadgets += float64(len(run.report.Findings))
				out.v.ok(len(run.report.Findings) > 0, "%s: TaintChannel reported no gadget", prog.name)
			} else if i < len(first) {
				out.v.ok(sha256Hex(text) == first[i], "%s: pass %d report differs from pass 0's", prog.name, pass)
			}
			if !cfg.trace {
				continue
			}
			// The bare run must compute what the instrumented one did:
			// the analyzer observes, it never changes the victim.
			b, err := runVictim(prog, inputs[i], false)
			if out.v.ok(err == nil, "bare %v", err) {
				out.v.ok(b.steps == run.steps && string(b.output) == string(run.output),
					"%s: bare run (%d steps) differs from the analysed run (%d steps)", prog.name, b.steps, run.steps)
				bareWall += b.wall
			}
		}
		walls = append(walls, wall.Seconds())
		bare = append(bare, bareWall.Seconds())
		if pass == 0 {
			out.digest = d.sum()
		}
	}
	cpu1, err := cpuSelf()
	if err != nil {
		return nil, err
	}
	if err := passMetrics(out, walls, cpu1-cpu0); err != nil {
		return nil, err
	}
	for _, name := range taintVictims {
		out.layerSamples("taint."+name+"_s", "s", per[name])
	}
	out.layerSamples("core.analyze_s", "s", walls)
	out.layerSamples("vm.run_s", "s", bare)
	if b := median(bare); b > 0 {
		out.layer("core.overhead_x", "x", median(walls)/b)
	}
	out.layer("vm.instructions", "count", steps)
	out.layer("core.gadgets", "count", gadgets)
	return out, nil
}

// vmProgram is a victim program with its registry name.
type vmProgram struct {
	name string
	p    *isa.Program
}
