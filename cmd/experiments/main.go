// Command experiments regenerates every table and figure of the paper's
// evaluation (plus the extension and ablation studies indexed in
// DESIGN.md) and prints the full reports with pass/fail verdicts.
//
// Usage:
//
//	experiments [-run all|T1,F3,F4,...] [-scale 1.0] [-seed 42] [-ebs 50] [-accuracy report.json]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// -scale 1.0 runs the paper's full one-hour scenarios in virtual time;
// smaller factors shorten them proportionally. -accuracy writes the
// machine-readable precision/recall/time-to-detect report built from the
// S-series scenarios' fault-injection ground truth (the scenario-matrix
// CI gate consumes it). -cpuprofile and -memprofile profile the selected
// experiments as they run (go tool pprof reads the files).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profiling"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale     = flag.Float64("scale", 1.0, "time scale factor for scenario durations")
		seed      = flag.Uint64("seed", 42, "random seed")
		ebs       = flag.Int("ebs", 50, "emulated browsers for single-phase experiments")
		items     = flag.Int("items", 0, "TPC-W item scale (0 selects the package default)")
		customers = flag.Int("customers", 0, "TPC-W customer scale (0 selects the package default)")
		accuracy  = flag.String("accuracy", "", "write the S-series accuracy report (JSON) to this path")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile at the end of the run to this path")
	)
	flag.Parse()

	cfg := experiment.Config{TimeScale: *scale, Seed: *seed, EBs: *ebs, Items: *items, Customers: *customers}
	runners := map[string]func(experiment.Config) experiment.Result{
		"T1":  experiment.TableI,
		"F2":  experiment.Fig2,
		"F3":  experiment.Fig3,
		"F4":  experiment.Fig4,
		"F5":  experiment.Fig5,
		"F6":  experiment.Fig6,
		"F7":  experiment.Fig7,
		"E8":  experiment.E8CPUThreadLeaks,
		"E9":  experiment.E9PinpointCoupled,
		"E10": experiment.E10TimeToFailure,
		"E11": experiment.E11StrategyComparison,
		"A1":  experiment.A1MonitoringLevels,
		"A2":  experiment.A2SizingPolicies,
		"A3":  experiment.A3MixSensitivity,
		"S1":  experiment.S1WorkloadShift,
		"S2":  experiment.S2OnlineLeakDetection,
		"S3":  experiment.S3DiurnalCycle,
		"S4":  experiment.S4BurstWithLeak,
		"S5":  experiment.S5SingleNodeLeak,
		"S6":  experiment.S6UniformLeak,
		"S7":  experiment.S7NodeChurn,
		"S8":  experiment.S8SkewedBalancer,
		"S9":  experiment.S9PoolExhaustion,
		"S10": experiment.S10HandleLeak,
		"S11": experiment.S11LockContention,
		"S12": experiment.S12FragmentationBloat,
		"S13": experiment.S13StaleCacheDecay,
		"S14": experiment.S14NodeKill,
		"S15": experiment.S15TransportPartition,
		"S16": experiment.S16ClockSkew,
		"S17": experiment.S17RejuvenateSickReplica,
		"S18": experiment.S18FlappingDetectorHeld,
		"S19": experiment.S19ControlLossDuringDrain,
		"S20": experiment.S20KillAggregatorMidLeak,
		"S21": experiment.S21FailoverMidDrain,
		"S22": experiment.S22RoundStormOverload,
	}
	order := []string{"T1", "F2", "F3", "F4", "F5", "F6", "F7", "E8", "E9", "E10", "E11", "A1", "A2", "A3",
		"S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "S13", "S14", "S15", "S16",
		"S17", "S18", "S19", "S20", "S21", "S22"}

	var ids []string
	if *run == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", id, strings.Join(order, ","))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failures := 0
	var verdicts []string
	var results []experiment.Result
	for _, id := range ids {
		fmt.Printf("running %s (scale %.2f)...\n", id, *scale)
		res := runners[id](cfg)
		fmt.Println(res.String())
		verdicts = append(verdicts, res.Verdict())
		results = append(results, res)
		if !res.Pass {
			failures++
		}
	}
	// The profiles cover the experiments, not the reporting, and must be
	// complete before any exit below.
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("==== summary ====")
	for _, v := range verdicts {
		fmt.Println(v)
	}
	if *accuracy != "" {
		report := experiment.BuildAccuracyReport(cfg, results)
		data, err := report.JSON()
		if err == nil {
			err = os.WriteFile(*accuracy, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing accuracy report: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(report.String())
		fmt.Printf("accuracy report written to %s\n", *accuracy)
	}
	if failures > 0 {
		fmt.Printf("%d of %d experiments did not reproduce\n", failures, len(ids))
		os.Exit(1)
	}
	fmt.Printf("all %d experiments reproduced\n", len(ids))
}
