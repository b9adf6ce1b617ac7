// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload through the program as a user would
// (trace an application, save it, load it back, analyze it, validate it
// against MPI happens-before and render the report; or the checkpointed
// reproduction sweep; or the WAL checkpoint burst), checks every output,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload flash-fbs-r256 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// iterations. With --trace 1 it carries the per-layer metrics of traced
// iterations (spans around every stage call, allocation and counter deltas)
// and writes the spans as Chrome trace_event JSON under --workdir. Workload
// definitions live in workloads.go, per-layer metrics in layers.go.
//
// Exit status is 0 only when every stage call and every output check
// succeeded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// setupProbes is how many child processes measure setup_s. Setup is a few
// milliseconds of process start and initialization, so a single sample is
// mostly scheduler noise; the median of several is steady.
const setupProbes = 15

// probeEnv carries the parent's clock reading at fork into a setup probe.
const probeEnv = "PERFBENCH_PROBE_T0_NS"

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	workdir  string
	toy      bool
	verdicts string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var probe bool
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to keep measuring iterations")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench-work", "scratch directory for traces, checkpoints and logs")
	fs.BoolVar(&cfg.toy, "toy", false, "run the workload at toy scale (self-test)")
	fs.StringVar(&cfg.verdicts, "verdicts", "results/verdicts.txt", "expected per-configuration verdicts")
	fs.BoolVar(&probe, "setup-probe", false, "internal: perform setup only and print its duration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.traced = trace == 1
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if probe {
		return runProbe(cfg, stdout, stderr)
	}
	b := newBench(cfg, def, stderr)
	res := b.run()
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// env is what setup builds: the same pieces a CLI invocation constructs
// before its first stage (pinned GOMAXPROCS, a fresh telemetry registry, a
// scratch directory and the retrying osdisk storage backend).
type env struct {
	workers int
	dir     string
	backend storage.Backend
}

func setup(cfg config) (*env, error) {
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	obs.Default().Reset()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	backend, err := storage.ParseSpec("osdisk")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &env{
		workers: workers,
		dir:     dir,
		backend: storage.NewRetry(backend, storage.RetryOptions{}),
	}, nil
}

// runProbe is one setup sample: the time from the parent's fork to the end
// of setup in this fresh process, which covers exec, runtime and package
// initialization (every instrumented layer registers its instruments) and
// setup itself.
func runProbe(cfg config, stdout, stderr io.Writer) int {
	t0, err := strconv.ParseInt(os.Getenv(probeEnv), 10, 64)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup probe needs", probeEnv)
		return 2
	}
	e, err := setup(cfg)
	elapsed := time.Now().UnixNano() - t0
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	os.RemoveAll(e.dir)
	fmt.Fprintln(stdout, elapsed)
	return 0
}

// probeSetup launches setupProbes child processes one after another and
// returns their setup times in seconds.
func probeSetup(cfg config) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--setup-probe", "--workload", cfg.workload, "--workdir", cfg.workdir}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", probeEnv, time.Now().UnixNano()))
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", b, err)
		}
		out = append(out, float64(ns)/1e9)
	}
	return out, nil
}

// ops counts operations for fail_ratio: each stage call and each output
// check is one attempted operation.
type ops struct {
	attempted, failed int
	log               io.Writer
}

func (o *ops) record(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(o.log, "perfbench: FAIL %s: %v\n", what, err)
	}
}

// check records one output check.
func (o *ops) check(name string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	o.record("check "+name, err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	descriptors map[string]any
}

// printResult writes the run descriptors on one line, then the result as
// the last line of output.
func printResult(w io.Writer, res *result) error {
	d, err := json.Marshal(map[string]any{"descriptors": res.descriptors})
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, r)
	return err
}

type bench struct {
	cfg   config
	def   workloadDef
	log   io.Writer
	ops   ops
	spans obs.Tracer // the benchmark's own stage spans
}

func newBench(cfg config, def workloadDef, log io.Writer) *bench {
	b := &bench{cfg: cfg, def: def, log: log, ops: ops{log: log}}
	b.spans.SetEnabled(cfg.traced)
	return b
}

func (b *bench) run() *result {
	res := &result{Metrics: map[string]metric{}, descriptors: map[string]any{}}
	finish := func() *result {
		res.Attempted, res.Failed = b.ops.attempted, b.ops.failed
		if res.Attempted == 0 {
			res.Attempted = 1
			res.Failed = 1
		}
		res.Correct = res.Failed == 0
		res.descriptors["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
		return res
	}
	setups, err := probeSetup(b.cfg)
	b.ops.record("setup probes", err)
	if err != nil {
		return finish()
	}
	setupS := median(setups)

	e, err := setup(b.cfg)
	b.ops.record("setup", err)
	if err != nil {
		return finish()
	}
	defer os.RemoveAll(e.dir)
	w, err := b.def.build(e, b.cfg)
	b.ops.record("expected outputs", err)
	if err != nil {
		return finish()
	}

	describe(res.descriptors, b.cfg, e)
	steal0, total0 := cpuTicks()
	var untraced, traced []*iteration
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced iterations, so both
		// sides of run.trace_overhead see the same machine state.
		tracedIter := b.cfg.traced && i%2 == 1
		start := time.Now()
		it, ok := b.iterate(w, e, tracedIter)
		if !ok {
			return finish()
		}
		if tracedIter {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
		// Stop once another iteration like this one would end past the
		// window, so a run lasts about --seconds whatever the iteration
		// length.
		enough := len(untraced) > 0 && (!b.cfg.traced || len(traced) > 0)
		if enough && time.Now().Add(time.Since(start)).After(deadline) {
			break
		}
	}
	for k, v := range w.descriptors() {
		res.descriptors[k] = v
	}
	// On a shared virtual machine the hypervisor's steal time inflates wall
	// times; its share during the measurement explains outlying runs.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		res.descriptors["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}

	if !b.cfg.traced {
		totals := make([]float64, len(untraced))
		for i, it := range untraced {
			totals[i] = setupS + it.produce() + it.consume()
		}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["produce_s"] = metric{median(collect(untraced, (*iteration).produce)), "s"}
		res.Metrics["consume_s"] = metric{median(collect(untraced, (*iteration).consume)), "s"}
		res.Metrics["total_s"] = metric{median(totals), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(collect(untraced, func(it *iteration) float64 { return it.peakRSSMiB })), "MiB"}
		res.descriptors["iterations"] = len(untraced)
		res.descriptors["setup_samples"] = len(setups)
		return finish()
	}

	overhead := (setupS+median(collect(traced, (*iteration).total)))/
		(setupS+median(collect(untraced, (*iteration).total))) - 1
	spans := b.spans.Spans()
	for _, it := range traced {
		it.attributeSpans(spans)
		// Toy iterations last milliseconds, so the fixed per-stage
		// bookkeeping of a traced stage dominates their root span.
		if !b.cfg.toy {
			b.ops.check("stage coverage", it.coverage >= 0.95, "stage spans cover %.3f of the root span", it.coverage)
		}
	}
	scaling, err := b.scalingPoints()
	b.ops.record("rank-scaling points", err)
	if err != nil {
		return finish()
	}
	for _, m := range layerMetrics {
		vals := make([]float64, len(traced))
		for i, it := range traced {
			vals[i] = m.value(it)
		}
		res.Metrics[m.name] = metric{median(vals), m.unit}
	}
	res.Metrics["run.trace_overhead"] = metric{overhead, "ratio"}
	for name, v := range scaling {
		res.Metrics[name] = v
	}
	path, err := b.writeSpans()
	b.ops.record("span export", err)
	res.descriptors["spans"] = path
	res.descriptors["iterations"] = map[string]int{"untraced": len(untraced), "traced": len(traced)}
	return finish()
}

// iterate runs one iteration of the workload plus its output checks. It
// reports false when a stage failed, which ends the run.
func (b *bench) iterate(w workload, e *env, traced bool) (*iteration, bool) {
	// Start each iteration from the same heap state, so peak_rss_mb is the
	// iteration's own peak and not what earlier iterations left behind.
	debug.FreeOSMemory()
	resetPeakRSS()
	it := &iteration{traced: traced, ops: &b.ops}
	var before obs.Snapshot
	if traced {
		it.root = b.spans.Start(b.cfg.workload, "perfbench")
		before = obs.Default().Snapshot()
	}
	err := w.iterate(it)
	it.root.End()
	it.peakRSSMiB = peakRSSMiB()
	if traced {
		it.delta = before.Diff(obs.Default().Snapshot())
	}
	if err != nil {
		w.cleanup()
		return nil, false
	}
	w.check(it)
	w.cleanup()
	fmt.Fprintf(b.log, "perfbench: %s traced=%v produce=%.4fs consume=%.4fs peak_rss=%.1fMiB\n",
		b.cfg.workload, traced, it.produce(), it.consume(), it.peakRSSMiB)
	return it, true
}

func (b *bench) writeSpans() (string, error) {
	data, err := b.spans.ChromeTraceJSON()
	if err != nil {
		return "", err
	}
	path := fmt.Sprintf("%s/spans-%s-seed%d.json", b.cfg.workdir, b.cfg.workload, b.cfg.seed)
	return path, os.WriteFile(path, data, 0o644)
}

func describe(d map[string]any, cfg config, e *env) {
	d["workload"] = cfg.workload
	d["seed"] = cfg.seed
	d["toy_scale"] = cfg.toy
	d["nproc"] = runtime.NumCPU()
	d["gomaxprocs"] = runtime.GOMAXPROCS(0)
	d["workers"] = e.workers
	d["go_version"] = runtime.Version()
	d["storage"] = "osdisk behind storage.NewRetry, in " + cfg.workdir +
		"; trace loads and WAL recovery read files just written, so they are served " +
		"from the OS page cache: their times are this host's, not a device's"
}

func collect(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS restarts the kernel's peak-RSS tracking at the current RSS
// (writing 5 to clear_refs resets VmHWM). Where that is not permitted the
// peak stays process-wide, which only makes later iterations read higher.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the peak resident set size since the last reset,
// falling back to the process-wide peak from getrusage.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// cpuTicks returns the machine's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
