package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/experiment"
	"repro/internal/servlet"
)

// loadOptions carries the -load flag set into runLoad.
type loadOptions struct {
	duration  time.Duration
	sessions  int
	shards    int
	backend   string
	seed      uint64
	monitor   bool
	interval  time.Duration
	workers   int
	leak      string
	leakShard int
	leakSize  int
	leakN     int
	batch     int
	lanes     int
}

// loadConfig translates the flag set into a LoadConfig.
func loadConfig(opts loadOptions) experiment.LoadConfig {
	cfg := experiment.LoadConfig{
		Seed:     opts.seed,
		Sessions: opts.sessions,
		Shards:   opts.shards,
		Mix:      eb.Shopping,
	}
	switch opts.backend {
	case "model", "":
	case "container":
		cfg.Backend = experiment.BackendContainer
		if opts.workers > 0 {
			// Queue depth rides the worker count: the servlet default of
			// 500 was sized for the 50-worker testbed.
			cfg.Container = servlet.Config{Workers: opts.workers, QueueCapacity: 10 * opts.workers}
		}
	default:
		log.Fatalf("unknown -backend %q (want model or container)", opts.backend)
	}
	if opts.monitor {
		cfg.Monitor = true
		cfg.MonitorInterval = opts.interval
		cfg.Link = experiment.MonitorLink{Wire: true, BatchRounds: opts.batch} // 0 = LoadConfig's default of 8
		cfg.IngestLanes = opts.lanes
		// The experiment tiers' scenario tuning: a 20-round window with
		// alarms allowed from round 6 — a CLI run is minutes of virtual
		// time, not the manager's default 20-minute window.
		cfg.Detect = detect.Config{Window: 20, MinSamples: 6, Consecutive: 3}
	}
	return cfg
}

// runLoad is the -load mode: the million-session tier.
func runLoad(opts loadOptions) {
	ls, err := experiment.NewLoadStack(loadConfig(opts))
	if err != nil {
		log.Fatal(err)
	}
	defer ls.Close()
	if opts.monitor && opts.leakShard >= 0 && opts.leak != "" {
		if _, err := ls.Shard(opts.leakShard).InjectLeak(opts.leak, opts.leakSize, opts.leakN, opts.seed); err != nil {
			log.Fatal(err)
		}
		log.Printf("injected %dB/N=%d memory leak into %s on shard %d",
			opts.leakSize, opts.leakN, opts.leak, opts.leakShard)
	}
	log.Printf("load tier: closed-loop %d sessions over %d shard(s) for %v of virtual time",
		opts.sessions, ls.Driver.Shards(), opts.duration)
	start := time.Now()
	ls.Run(opts.duration)
	elapsed := time.Since(start)
	fmt.Printf("completed %d interactions (%d failed) in %v wall time\n",
		ls.Driver.Completed(), ls.Driver.Failed(), elapsed.Truncate(time.Millisecond))
	fmt.Printf("peak WIPS %d, completion checksum %#x\n", ls.PeakWIPS(), ls.Driver.Checksum())
	if opts.monitor {
		if err := ls.SyncMonitor(); err != nil {
			log.Fatalf("monitor sync: %v", err)
		}
		reportMonitor(ls, elapsed)
	}
}

// reportMonitor prints the aggregation-plane telemetry of a monitored
// load run: how many rounds the aggregator folded, how fast they
// arrived in wall time, and the verdict (fold) latency.
func reportMonitor(ls *experiment.LoadStack, elapsed time.Duration) {
	rounds := ls.Aggregator.TotalRounds()
	last, max := ls.Aggregator.FoldLatency()
	fmt.Printf("aggregation plane: %d rounds over %d epochs (%.1f rounds/s wall), verdict latency last=%v max=%v\n",
		rounds, ls.Aggregator.Epoch(), float64(rounds)/elapsed.Seconds(), last, max)
	rep := ls.Aggregator.Report(core.ResourceMemory)
	if rep == nil {
		fmt.Println("cluster verdict: no completed epoch")
		return
	}
	if top, ok := rep.Top(); ok {
		fmt.Printf("cluster verdict: %s aging on memory (since epoch %d)\n", top.Pair(), top.FirstEpoch)
	} else {
		fmt.Println("cluster verdict: no (shard, component) pair flagged on memory")
	}
}
