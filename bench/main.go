// Command bench is the repository's benchmark: one harness for the paper's
// mining pipeline and for Bolt serving through graphd. It runs named
// workloads for a fixed time each, checks every reply, and reports the
// end-to-end metrics a user sees plus, from a separate traced replay, what
// each layer costs. README.md in this directory explains every metric.
//
//	go run ./bench -seed 42 -out bench/out            # all workloads, traced
//	go run ./bench -workloads bolt_point,score -trace 0
//	go run ./bench -compare run1/BENCH.json run2/BENCH.json
//
// The automated driver that judges later changes runs BENCHMARK.json's
// command as
//
//	go run ./bench --workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>
//
// and reads the last line of standard output: one JSON object
// ({"correct","attempted","failed","metrics"}) carrying every end_to_end
// metric of BENCHMARK.json with --trace 0 and every per_layer metric with
// --trace 1. That contract (README.md, "The driver contract") is why the
// window is a duration and why -workload exists beside -workloads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings, shared by every workload.
type config struct {
	ctx    context.Context
	seed   int64
	window time.Duration // length of the timed window
	sample int           // requests replayed by the traced run
	micro  int           // iterations of each storage micro-measurement
	setups int           // segments per run, each with its own set-up
	trace  bool
	quick  bool
	out    string
	graphd string // path of the built graphd binary
	buildS float64
}

// workload is one running instance of a workloadSpec.
type workload interface {
	// setup does everything needed before the first timed operation,
	// warm-up included; its wall time is setup_s.
	setup() error
	// run executes operations until stop reports true, recording into win.
	run(stop func(done int) bool, win *window)
	// pid names the process doing the work, whose peak resident set is
	// peak_rss_mb: the bench process itself, or the graphd child.
	pid() int
	// finish runs the end-of-window checks and collects server-side counters.
	finish(win *window, layers map[string]float64) error
	// trace replays the workload with spans around each layer call and adds
	// the per-layer metrics to layers.
	trace(tr *tracer, win *window, layers map[string]float64) error
	// close releases everything setup acquired; safe after a failed setup.
	close()
}

// window is what one timed run measured.
type window struct {
	ops       []time.Duration // primary operation latencies
	reads     []time.Duration // concurrent reader latencies (bolt_rw)
	firsts    []time.Duration // RUN sent -> first RECORD (bolt_scan)
	records   int64
	elapsed   time.Duration // start of the window to the last completed op
	attempted int
	failed    int
	errs      []string
	// bolt_rw: transactions acknowledged, and found whole after SIGKILL.
	acked, recovered int
}

// add appends what another window measured.
func (w *window) add(o *window) {
	w.ops = append(w.ops, o.ops...)
	w.reads = append(w.reads, o.reads...)
	w.firsts = append(w.firsts, o.firsts...)
	w.records += o.records
	w.elapsed += o.elapsed
	w.attempted += o.attempted
	w.failed += o.failed
	w.errs = append(w.errs, o.errs...)
	w.acked += o.acked
	w.recovered += o.recovered
}

// fail counts one failed, refused or wrong-answer operation.
func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// result is one workload's entry in BENCH.json.
type result struct {
	Samples       map[string]int    `json:"samples"`
	EndToEnd      map[string]metric `json:"end_to_end"`
	Informational map[string]metric `json:"informational,omitempty"`
	Layers        map[string]metric `json:"layers,omitempty"`
	Errors        []string          `json:"errors,omitempty"`

	attempted, failed int
}

// report is the BENCH.json document.
type report struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS map[string]int     `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Quick      bool               `json:"quick"`
	StartedAt  string             `json:"started_at"`
	BuildS     float64            `json:"setup.build_s"`
	Workloads  map[string]*result `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one parsed command line.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	out     string
	specs   []workloadSpec
	compare bool
	args    []string // -compare: the two BENCH.json paths
}

// errUsage is a command line the flag package has already reported.
var errUsage = errors.New("usage")

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{trace: true}
	fs.Int64Var(&o.seed, "seed", 42, "seed of the simulated model and of every request-key sequence")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of each workload's timed window (the driver passes run_seconds)")
	// Not a BoolVar: the driver writes "--trace 0", which a boolean flag
	// would read as -trace followed by a positional argument.
	fs.Func("trace", "1 (default): also run the traced replay and end with the per-layer metrics; 0 or false: end-to-end only", func(v string) (err error) {
		o.trace, err = strconv.ParseBool(v)
		return err
	})
	fs.BoolVar(&o.quick, "quick", false, "smoke run: 1/20 of the window and samples, one set-up; refused by -compare")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for BENCH.json, traces, the graphd binary and its WAL")
	var names string
	fs.StringVar(&names, "workloads", "", "comma-separated workloads to run (default: all)")
	fs.StringVar(&names, "workload", "", "the driver's spelling of -workloads")
	fs.BoolVar(&o.compare, "compare", false, "compare two BENCH.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return nil, errUsage
	}
	if o.args = fs.Args(); o.compare {
		return o, nil
	}
	if o.seconds <= 0 || fs.NArg() != 0 {
		return nil, fmt.Errorf("-seconds must be positive, and -compare alone takes positional arguments")
	}
	if names == "" {
		o.specs = workloads
	}
	for _, n := range strings.Split(names, ",") {
		if n == "" {
			continue
		}
		spec, ok := findSpec(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		o.specs = append(o.specs, spec)
	}
	return o, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if o.compare {
		return runCompare(o.args, stdout, stderr)
	}
	// A signal cancels ctx: timed loops stop, and every graphd child was
	// started under ctx, so it is killed and no listener outlives the run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := &config{
		ctx: ctx, seed: o.seed, window: time.Duration(o.seconds * float64(time.Second)),
		sample: traceSample, micro: microRepeats, setups: setupRepeats,
		trace: o.trace, quick: o.quick, out: o.out,
	}
	if cfg.quick {
		cfg.window /= quickDivisor
		cfg.sample /= quickDivisor
		cfg.micro /= quickDivisor
		cfg.setups = 1
	}
	rep, err := runAll(cfg, o.specs, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, spec := range o.specs {
		if rep.Workloads[spec.name].failed > 0 {
			return 1
		}
	}
	return 0
}

// runAll runs the selected workloads in order, prints every metric, writes
// BENCH.json and ends with the driver lines.
func runAll(cfg *config, specs []workloadSpec, stdout io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if strings.HasPrefix(spec.name, "bolt_") {
			if err := buildGraphd(cfg); err != nil {
				return nil, err
			}
			break
		}
	}
	rep := &report{
		Commit: gitCommit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(),
		// Neither process sets GOMAXPROCS: graphd inherits this environment, so
		// both run at the same runtime default, recorded here.
		GOMAXPROCS: map[string]int{"bench": runtime.GOMAXPROCS(0), "graphd": runtime.GOMAXPROCS(0)},
		Seed:       cfg.seed, Seconds: cfg.window.Seconds(), Quick: cfg.quick,
		StartedAt: time.Now().UTC().Format(time.RFC3339), BuildS: cfg.buildS,
		Workloads: map[string]*result{},
	}
	fmt.Fprintf(stdout, "bench: commit %s %s %s/%s nproc %d GOMAXPROCS %d seed %d window %.2fs setup.build_s %.3f\n",
		rep.Commit, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.NProc, runtime.GOMAXPROCS(0), cfg.seed, cfg.window.Seconds(), cfg.buildS)
	for _, spec := range specs {
		res, err := runWorkload(cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		rep.Workloads[spec.name] = res
		printResult(stdout, spec, res)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "BENCH.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	for _, spec := range specs {
		line, err := json.Marshal(driverLine(spec, rep.Workloads[spec.name], cfg.trace))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return rep, nil
}

// runWorkload measures one workload in cfg.setups segments: each sets the
// workload up afresh (a new dataset, a new graphd child), times the set-up,
// and runs an equal share of the timed window untraced, followed by its
// checks. Pooling segments means setup_s and peak_rss_mb are medians of
// several set-ups and every latency median spans several server processes,
// which is what makes a run repeat. The traced replay follows on the last.
func runWorkload(cfg *config, spec workloadSpec) (*result, error) {
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var setups, peaks []float64
	win := &window{}
	layers := map[string]float64{}
	for seg := 0; seg < cfg.setups; seg++ {
		if w != nil {
			w.close()
		}
		w = spec.open(cfg)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		// VmHWM only grows: forget the set-up's and earlier segments' peak.
		// Where the kernel refuses, the peak is the maximum so far instead.
		debug.FreeOSMemory()
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)

		part := &window{}
		deadline := time.Now().Add(cfg.window / time.Duration(cfg.setups))
		w.run(func(done int) bool {
			return cfg.ctx.Err() != nil || (done > 0 && !time.Now().Before(deadline))
		}, part)
		win.add(part)
		if err := cfg.ctx.Err(); err != nil {
			return nil, err
		}
		if len(part.ops) == 0 {
			return nil, fmt.Errorf("no operation completed: %s", strings.Join(part.errs, "; "))
		}
		rss, err := peakRSSMiB(w.pid())
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		if err := w.finish(win, layers); err != nil {
			return nil, fmt.Errorf("finish: %w", err)
		}
	}

	res := &result{
		Samples:  map[string]int{"setup": len(setups), "op": len(win.ops)},
		EndToEnd: map[string]metric{}, Informational: map[string]metric{},
		Errors: win.errs, attempted: win.attempted, failed: win.failed,
	}
	measured := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"ops_per_s":   {float64(len(win.ops)) / win.elapsed.Seconds(), "1/s"},
		"peak_rss_mb": {median(peaks), "MiB"},
	}
	latencyMetrics(measured, "op", win.ops)
	if len(win.firsts) > 0 {
		measured["records_per_s"] = metric{float64(win.records) / win.elapsed.Seconds(), "1/s"}
		measured["first_record_p50_ms"] = metric{ms(medianDur(win.firsts)), "ms"}
		res.Samples["first_record"] = len(win.firsts)
	}
	if len(win.reads) > 0 {
		latencyMetrics(measured, "read", win.reads)
		res.Samples["read"] = len(win.reads)
	}
	// What the workload declares is end-to-end and judged by -compare; what
	// it measures besides is informational: printed and stored, never judged.
	for name, m := range measured {
		if slices.Contains(spec.e2e, name) {
			res.EndToEnd[name] = m
		} else {
			res.Informational[name] = m
		}
	}
	// A declared metric the run could not report is an error, never a filler.
	for _, name := range spec.e2e {
		if _, ok := res.EndToEnd[name]; !ok {
			return nil, fmt.Errorf("%s is declared but was not measured (samples %v)", name, res.Samples)
		}
	}
	res.EndToEnd[failRatio] = metric{float64(win.failed) / float64(win.attempted), "ratio"}
	if win.acked > 0 {
		layers[recoveredRatio] = float64(win.recovered) / float64(win.acked)
		res.EndToEnd[recoveredRatio] = metric{layers[recoveredRatio], "ratio"}
	}

	if cfg.trace {
		tr := newTracer()
		if err := w.trace(tr, win, layers); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		// The one layer every set-up pays; after the replay, so the traced
		// calls met the heap the timed ones met.
		layers["datasets.generate_ms"] = ms(tr.do("datasets.generate", 0, 0, func() { twitter() }))
		if err := tr.write(filepath.Join(cfg.out, spec.name+".trace.json")); err != nil {
			return nil, err
		}
		res.Samples["spans"] = len(tr.spans)
	}
	layers[failRatio] = res.EndToEnd[failRatio].Value
	res.Layers = map[string]metric{}
	for _, d := range perLayer {
		res.Layers[d.Name] = metric{layers[d.Name], d.Unit}
	}
	for name := range layers {
		if _, ok := res.Layers[name]; !ok {
			return nil, fmt.Errorf("layer metric %q is not declared in workloads.go", name)
		}
	}
	return res, nil
}

// fillerFor names the metric that fills slot on spec's driver line. The
// driver wants every end_to_end metric of BENCHMARK.json from every workload,
// and none may be 0; a slot spec does not declare carries spec's first
// declared metric of the same unit and direction, whose bound is never wider
// than the slot's (TestFillersCannotRegressAlone). A filler therefore crosses
// its bound only after the metric it copies has crossed its own. It is never
// a reciprocal or any other derived number.
func fillerFor(spec workloadSpec, slot metricDecl) string {
	for _, name := range spec.e2e {
		if d := declOf(name); d.Unit == slot.Unit && d.Better == slot.Better {
			return name
		}
	}
	return ""
}

// driverLine is the JSON object the automated driver reads: the per-layer
// metrics of a traced run, else every end_to_end metric, measured or filled.
func driverLine(spec workloadSpec, res *result, traced bool) map[string]any {
	metrics := map[string]metric{}
	if traced {
		for name, m := range res.Layers {
			metrics[name] = m
		}
	} else {
		for _, d := range endToEnd {
			m, ok := res.EndToEnd[d.Name]
			if !ok {
				m = res.EndToEnd[fillerFor(spec, d)]
			}
			metrics[d.Name] = m
		}
	}
	return map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	}
}

// printResult lists every metric of one workload by name, with its unit and
// the sample counts behind them.
func printResult(out io.Writer, spec workloadSpec, res *result) {
	fmt.Fprintf(out, "\n%s  (%d closed-loop client(s); samples %v)\n", spec.name, spec.clients, res.Samples)
	list := func(indent, suffix string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name, m := range ms {
			if m.Value != 0 || name == failRatio {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "%s%-30s %14.4f %s%s\n", indent, name, ms[name].Value, ms[name].Unit, suffix)
		}
	}
	list("  ", "", res.EndToEnd)
	list("  ", "  (informational)", res.Informational)
	for _, d := range endToEnd {
		if _, ok := res.EndToEnd[d.Name]; !ok {
			fmt.Fprintf(out, "  %-30s %14s %s  (not measured here; the driver line repeats %s)\n", d.Name, "-", d.Unit, fillerFor(spec, d))
		}
	}
	list("    ", "", res.Layers) // layers the workload does not exercise are 0 and left out
	for _, e := range res.Errors {
		fmt.Fprintf(out, "  FAILED: %s\n", e)
	}
}

// buildGraphd compiles cmd/graphd into the output directory. Its time
// depends on the build cache, so it is informational (setup.build_s) and not
// part of setup_s.
func buildGraphd(cfg *config) error {
	out, err := filepath.Abs(filepath.Join(cfg.out, "graphd"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(cfg.ctx, "go", "build", "-o", out, "github.com/graphrules/graphrules/cmd/graphd")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build graphd: %w\n%s", err, b)
	}
	cfg.graphd, cfg.buildS = out, time.Since(t0).Seconds()
	return nil
}

// gitCommit names the measured commit, or "unknown" outside a git checkout.
func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMiB reads a process's peak resident set (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
