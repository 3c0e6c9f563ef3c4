package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as the runtime lets user code run, so
// setup_s can count from process start.
var processStart = time.Now()

// Workload names (normative: BENCHMARK.json, README.md and later issues
// refer to them).
const (
	wlShopMix          = "shop_mix"
	wlShopMixMonitored = "shop_mix_monitored"
	wlOrderMix         = "order_mix"
	wlLightPages       = "light_pages"
	wlFleetRounds      = "fleet_rounds"
)

var workloadNames = []string{wlShopMix, wlShopMixMonitored, wlOrderMix, wlLightPages, wlFleetRounds}

// End-to-end metric names. "op" is an interaction, or a node-round in
// fleet_rounds.
const (
	mSetup        = "setup_s"
	mInteractions = "interactions_per_s"
	mRounds       = "rounds_per_s"
	mCPU          = "cpu_us_per_op"
	mAllocs       = "allocs_per_op"
	mRSS          = "peak_rss_mb"
	mFailedShare  = "failed_share"
	mTTD          = "ttd_epochs"
	mWireBytes    = "wire_bytes_per_round"
)

// runConfig is everything one workload run depends on. The program under
// test receives only inputs generated from Seed.
type runConfig struct {
	Workload string
	Seed     uint64
	// Scale sizes the fixed work: 1 is the normative size (about ten
	// seconds of timed work on the reference host), the smoke test runs
	// 1/50.
	Scale float64
	// Traced adds the boundary wrappers and, after the timed section,
	// the layer probes. End-to-end metrics always come from untraced
	// runs.
	Traced bool
	// TraceOut receives the spans as JSONL ("" keeps them in memory
	// only).
	TraceOut string
	// SetupOnly stops the run where the timed section would begin and
	// reports setup_s alone: the parent takes its extra set-up samples from
	// such children.
	SetupOnly bool
}

// metric is one named measurement. N is the sample count behind a
// percentile or mean (0 when not applicable).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one workload run (one child process) reports.
type result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// Size states the workload size the metrics were taken at.
	Size string `json:"size"`
	// Attempted and Failed count operations (interactions, or node-rounds
	// in fleet_rounds) over the timed section.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// WallS is the timed section's wall time.
	WallS float64 `json:"wall_s"`
	// SpanWallS is the summed servlet.submit span time of a traced
	// request run; GeneratorS the load generator's own wall time for the
	// same population. The parent reconciles them with the untraced wall.
	SpanWallS  float64 `json:"span_wall_s,omitempty"`
	GeneratorS float64 `json:"generator_s,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// layer metrics of a traced one.
	Metrics []metric `json:"metrics"`
	// CheckFailures lists every failed correctness check; a run with any
	// is a failed run, whatever its numbers.
	CheckFailures []string `json:"check_failures,omitempty"`
	// Info holds printed-not-pinned facts (completion checksum, verdict).
	Info []string `json:"info,omitempty"`
}

func (r *result) add(name string, value float64, unit string) {
	r.addN(name, value, unit, 0)
}

func (r *result) addN(name string, value float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// set replaces the value of a metric the result already holds.
func (r *result) set(name string, value float64) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i].Value = value
		}
	}
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.CheckFailures = append(r.CheckFailures, fmt.Sprintf(format, args...))
	}
}

func (r *result) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// infoHighestPercentile prints, beside the fixed-name percentiles, the
// highest one the sample count supports.
func (r *result) infoHighestPercentile(name string, sortedUs []float64) {
	p := highestPercentile(len(sortedUs))
	r.infof("%s: %d samples, highest supported percentile p%g = %.1f us", name, len(sortedUs), p, percentile(sortedUs, p))
}

// resourceUsage is a point-in-time reading of what the timed section's
// cost metrics are deltas of.
type resourceUsage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

func readUsage() resourceUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return resourceUsage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs}
}

// addSetup appends setup_s: process start to the reading taken just before
// the first timed operation, i.e. assembly, database population and warm-up.
func (r *result) addSetup(before resourceUsage) {
	r.add(mSetup, before.at.Sub(processStart).Seconds(), "s")
}

// addEndToEnd appends the end-to-end metrics every workload shares, from
// the readings taken around the timed section (WallS is already set).
func (r *result) addEndToEnd(throughputName string, before, after resourceUsage, ops int64) error {
	r.addSetup(before)
	r.add(throughputName, float64(ops)/r.WallS, "1/s")
	r.add(mCPU, float64((after.cpu-before.cpu).Microseconds())/float64(ops), "us")
	r.add(mAllocs, float64(after.mallocs-before.mallocs)/float64(ops), "count")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add(mRSS, rss, "MB")
	r.add(mFailedShare, float64(r.Failed)/float64(r.Attempted), "share")
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// scaled sizes a normative quantity, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(float64(n)*scale + 0.5)
	if v < floor {
		v = floor
	}
	return v
}
