// Command experiments regenerates every table and figure of the paper's
// evaluation, the extension (E8–E11) and ablation (A1–A3) studies and
// the S-series scenario table — every entry of experiment.Experiments, in
// its order — and prints the full reports with pass/fail verdicts.
//
// Usage:
//
//	experiments [-run all|T1,F3,S5,...] [-scale 1.0] [-seed 42] [-ebs 50] [-accuracy report.json]
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
	runners := make(map[string]func(experiment.Config) experiment.Result, len(experiment.Experiments))
	var order []string
	for _, x := range experiment.Experiments {
		runners[x.ID] = x.Run
		order = append(order, x.ID)
	}

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
