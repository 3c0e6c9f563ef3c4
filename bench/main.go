// Command bench is the repository's benchmark: one harness, five named
// fixed-work workloads, each run in a fresh child process. It prints every
// metric by name and unit, checks that the outputs are correct, and writes
// uniform JSONL records. -trace 1 re-runs a workload with boundary
// wrappers and layer probes for the per-layer numbers; end-to-end metrics
// always come from the untraced run. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/eb"
)

// runSeconds is BENCHMARK.json's run_seconds: roughly how long one
// workload's timed section takes on the reference host. The acceptance
// driver appends "--seconds <run_seconds>" to the command, so the flag is
// parsed; the work itself is fixed, and no other value is accepted.
const runSeconds = 10

// setupSamples is how many fresh processes setup_s is the median of: the
// run itself and setupSamples-1 children that stop where the timed section
// would begin.
const setupSamples = 7

// setupSlackS is the absolute difference -repeat always allows setup_s.
const setupSlackS = 0.1

type options struct {
	workload  string
	seed      uint64
	trace     int
	outDir    string
	traceOut  string
	repeat    int
	child     bool
	setupOnly bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed; the program under test receives only inputs generated from it")
	seconds := fs.Int("seconds", runSeconds, "what the acceptance driver passes; the work is fixed, so only 10 is accepted")
	fs.IntVar(&o.trace, "trace", 0, "1 also runs each workload traced and reports the per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for results.jsonl and trace files")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run of a single -workload (default <out>/trace.<workload>.jsonl)")
	fs.IntVar(&o.repeat, "repeat", 0, "self-check: run the set N times and hold every end-to-end metric's spread to its bound")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result as JSON")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop where the timed section would begin and report setup_s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds != runSeconds || o.trace < 0 || o.trace > 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: -seconds must be %d (the work is fixed), -trace 0 or 1, and there are no positional arguments\n", runSeconds)
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	workloads := workloadNames
	if o.workload != "all" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want all or one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		workloads = []string{o.workload}
	}
	if o.traceOut != "" && (len(workloads) != 1 || o.trace != 1) {
		fmt.Fprintln(stderr, "bench: -trace-out names one span file: it needs -trace 1 and a single -workload")
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var err error
	if o.repeat > 0 {
		err = runRepeat(o, workloads, stdout)
	} else {
		err = runSet(o, workloads, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.Workload {
	case wlShopMix:
		return runMix(cfg, eb.Shopping, false)
	case wlShopMixMonitored:
		return runMix(cfg, eb.Shopping, true)
	case wlOrderMix:
		return runMix(cfg, eb.Ordering, false)
	case wlLightPages:
		return runLightPages(cfg)
	case wlFleetRounds:
		return runFleetRounds(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
}

func runChild(o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(runConfig{
		Workload: o.workload, Seed: o.seed, Scale: 1,
		Traced: o.trace == 1, TraceOut: o.traceOut, SetupOnly: o.setupOnly,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// meta is what every record carries about where and how it was measured.
// Results at different Procs are never comparable.
type meta struct {
	Commit string `json:"commit"`
	Host   string `json:"host"`
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
	Procs  int    `json:"procs"`
	GOGC   int    `json:"gogc"`
}

const childGOGC = 100

func currentMeta() meta {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return meta{
		Commit: gitCommit(), Host: host, Go: runtime.Version(),
		NProc: runtime.NumCPU(), Procs: min(runtime.NumCPU(), 2), GOGC: childGOGC,
	}
}

// gitCommit names the measured tree; "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(status)) > 0 {
		commit += "-dirty"
	}
	return commit
}

// spawn runs one workload. An untraced run reports setup_s as the median
// over setupSamples fresh processes: its own, and children that only set
// up. Discarded assemblies therefore never share a heap, a peak RSS or a
// collector state with the timed section.
func spawn(o options, m meta, workload string, traced bool) (*result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10)}
	if traced {
		traceOut := o.traceOut
		if traceOut == "" {
			traceOut = filepath.Join(o.outDir, "trace."+workload+".jsonl")
		}
		return spawnChild(m, append(args, "-trace", "1", "-trace-out", traceOut)...)
	}
	// Half of the set-up children run before the timed run and half after
	// it: a burst of host noise shorter than the run then spoils at most
	// half of the samples, and the median survives it.
	var res *result
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		childArgs := append(args, "-setup-only")
		if i == setupSamples/2 {
			childArgs = args
		}
		r, err := spawnChild(m, childArgs...)
		if err != nil {
			return nil, err
		}
		if i == setupSamples/2 {
			res = r
		}
		v, _ := r.get(mSetup)
		setups = append(setups, v)
	}
	res.set(mSetup, median(setups))
	return res, nil
}

// spawnChild starts a fresh child process with a scrubbed environment:
// GOMAXPROCS, GOGC and GODEBUG are set explicitly and nothing else is
// inherited, so a stray shell variable cannot skew a comparison.
func spawnChild(m meta, args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Env = []string{
		"GOMAXPROCS=" + strconv.Itoa(m.Procs),
		"GOGC=" + strconv.Itoa(m.GOGC),
		"GODEBUG=",
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child %v: bad result: %w", args, err)
	}
	return &res, nil
}

// record is one line of results.jsonl.
type record struct {
	meta
	Seed     uint64  `json:"seed"`
	Workload string  `json:"workload"`
	Size     string  `json:"size"`
	Traced   bool    `json:"traced"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
}

func records(m meta, seed uint64, res *result) []record {
	out := make([]record, 0, len(res.Metrics))
	for _, mt := range res.Metrics {
		out = append(out, record{meta: m, Seed: seed, Workload: res.Workload, Size: res.Size, Traced: res.Traced,
			Metric: mt.Name, Value: mt.Value, Unit: mt.Unit, N: mt.N})
	}
	return out
}

func writeRecords(w io.Writer, recs []record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// pairMetrics adds what only an untraced/traced pair can say: the tracing
// overhead, and whether the spans account for the untraced wall time.
func pairMetrics(untraced, traced *result, out io.Writer) {
	traced.add(mTraceOverhead, traced.WallS/untraced.WallS, "ratio")
	if traced.SpanWallS == 0 {
		return
	}
	ratio := (traced.SpanWallS + traced.GeneratorS) / untraced.WallS
	traced.add(mReconcile, ratio, "ratio")
	if ratio < 0.8 || ratio > 1.2 {
		fmt.Fprintf(out, "  WARNING: %s = %.3f is outside 0.8-1.2: the spans do not account for the wall time\n", mReconcile, ratio)
	}
}

func printResult(out io.Writer, o options, m meta, res *result) {
	kind := "end to end"
	if res.Traced {
		kind = "per layer (traced run)"
	}
	fmt.Fprintf(out, "== %s, %s: %s\n   seed=%d commit=%s %s nproc=%d procs=%d gogc=%d\n",
		res.Workload, kind, res.Size, o.seed, m.Commit, m.Go, m.NProc, m.Procs, m.GOGC)
	for _, mt := range res.Metrics {
		n := ""
		if mt.N > 0 {
			n = fmt.Sprintf("  (n=%d)", mt.N)
		}
		fmt.Fprintf(out, "  %-46s %16.6g %s%s\n", mt.Name, mt.Value, mt.Unit, n)
	}
	fmt.Fprintf(out, "  timed section: %d ops attempted, %d failed, %.3f s wall\n", res.Attempted, res.Failed, res.WallS)
	for _, line := range res.Info {
		fmt.Fprintf(out, "  info: %s\n", line)
	}
	for _, f := range res.CheckFailures {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
	}
	if len(res.CheckFailures) == 0 {
		fmt.Fprintln(out, "  checks: ok")
	}
}

// resultLine is the machine-facing last line of a single-workload run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lineFor renders the last line: every end-to-end metric of the untraced
// run, or every layer metric of the traced one (0 where a layer does not
// run in this workload).
func lineFor(untraced, traced *result) resultLine {
	line := resultLine{Correct: len(untraced.CheckFailures) == 0, Attempted: untraced.Attempted,
		Failed: untraced.Failed, Metrics: make(map[string]lineMetric)}
	if traced == nil {
		for _, d := range endToEndDefs {
			v, _ := untraced.get(d.Name)
			if d.Name == mOps {
				if v, _ = untraced.get(mInteractions); v == 0 {
					v, _ = untraced.get(mRounds)
				}
			}
			line.Metrics[d.Name] = lineMetric{v, d.Unit}
		}
		return line
	}
	line.Correct = line.Correct && len(traced.CheckFailures) == 0
	for _, d := range layerDefs {
		v, _ := traced.get(d.Name)
		line.Metrics[d.Name] = lineMetric{v, d.Unit}
	}
	return line
}

// runSet runs each workload once (twice with -trace 1: untraced, then
// traced), prints and records everything, and fails if any check failed.
func runSet(o options, workloads []string, out io.Writer) error {
	m := currentMeta()
	var recs []record
	var failed []string
	untracedBy := make(map[string]*result)
	var untraced, traced *result // of the workload run last
	for _, w := range workloads {
		var err error
		if untraced, err = spawn(o, m, w, false); err != nil {
			return err
		}
		untracedBy[w] = untraced
		printResult(out, o, m, untraced)
		recs = append(recs, records(m, o.seed, untraced)...)
		bad := len(untraced.CheckFailures) > 0
		if o.trace == 1 {
			if traced, err = spawn(o, m, w, true); err != nil {
				return err
			}
			pairMetrics(untraced, traced, out)
			printResult(out, o, m, traced)
			recs = append(recs, records(m, o.seed, traced)...)
			bad = bad || len(traced.CheckFailures) > 0
		}
		if bad {
			failed = append(failed, w)
		}
	}
	printMonitorOverhead(out, untracedBy)
	if err := writeResultsFile(o, recs); err != nil {
		return err
	}
	if len(workloads) == 1 {
		line, err := json.Marshal(lineFor(untraced, traced))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

func writeResultsFile(o options, recs []record) error {
	var buf bytes.Buffer
	if err := writeRecords(&buf, recs); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "results.jsonl"), buf.Bytes(), 0o644)
}

// printMonitorOverhead prints Fig. 3's comparison as information. It is
// deliberately not a metric: the ratio gets "worse" the moment sqldb gets
// faster, and would block exactly that change.
func printMonitorOverhead(out io.Writer, by map[string]*result) {
	plain, mon := by[wlShopMix], by[wlShopMixMonitored]
	if plain == nil || mon == nil {
		return
	}
	p, _ := plain.get(mInteractions)
	q, _ := mon.get(mInteractions)
	if p == 0 || q == 0 {
		return
	}
	fmt.Fprintf(out, "info: monitored/unmonitored interactions_per_s = %.4f (base %.1f /s); monitor_added_us_per_interaction = %.2f\n",
		q/p, p, 1e6/q-1e6/p)
}

// runRepeat is the self-check: N untraced sets of the same code, then per
// workload and end-to-end metric the median, quartiles and spread, held to
// the metric's own bound. Exact counts must not differ at all.
func runRepeat(o options, workloads []string, out io.Writer) error {
	if o.repeat < 2 {
		return errors.New("-repeat needs at least 2 sets")
	}
	first := currentMeta()
	values := make(map[string]map[string][]float64) // workload -> metric -> per-set value
	units := make(map[string]string)
	var recs []record
	var problems []string
	for set := 1; set <= o.repeat; set++ {
		m := currentMeta()
		if m != first {
			return fmt.Errorf("set %d ran under %+v, set 1 under %+v: not comparable", set, m, first)
		}
		fmt.Fprintf(out, "-- set %d of %d\n", set, o.repeat)
		for _, w := range workloads {
			res, err := spawn(o, m, w, false)
			if err != nil {
				return err
			}
			printResult(out, o, m, res)
			recs = append(recs, records(m, o.seed, res)...)
			if len(res.CheckFailures) > 0 {
				problems = append(problems, fmt.Sprintf("%s: correctness checks failed in set %d", w, set))
			}
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for _, mt := range res.Metrics {
				values[w][mt.Name] = append(values[w][mt.Name], mt.Value)
				units[mt.Name] = mt.Unit
			}
		}
	}
	if err := writeResultsFile(o, recs); err != nil {
		return err
	}
	fmt.Fprintf(out, "== spread over %d sets (procs=%d gogc=%d commit=%s)\n", o.repeat, first.Procs, first.GOGC, first.Commit)
	fmt.Fprintf(out, "  %-20s %-36s %12s %12s %12s %8s %7s\n", "workload", "metric", "q1 (min)", "median", "q3 (max)", "spread", "bound")
	for _, w := range workloads {
		names := make([]string, 0, len(values[w]))
		for name := range values[w] {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			bound, ok := repeatBound(name)
			if !ok {
				continue
			}
			vs := values[w][name]
			q1, med, q3 := quartiles(vs)
			if len(vs) < 4 { // quartiles of two or three values are extrapolations: show the range
				q1, q3 = slices.Min(vs), slices.Max(vs)
			}
			sp := spread(vs)
			verdict := ""
			// A 12 ms set-up in a fresh process reads a third higher one run
			// in ten, so setup_s may also differ by setupSlackS in absolute
			// terms: the issue's max(relative bound, 0.1 s).
			if sp > bound && !(name == mSetup && q3-q1 <= setupSlackS) {
				verdict = "  EXCEEDS BOUND"
				problems = append(problems, fmt.Sprintf("%s %s: spread %.4f exceeds bound %.4f", w, name, sp, bound))
			}
			fmt.Fprintf(out, "  %-20s %-36s %12.6g %12.6g %12.6g %8.4f %7.3f%s\n", w, name, q1, med, q3, sp, bound, verdict)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("self-check failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
