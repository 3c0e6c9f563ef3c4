package main

import (
	"fmt"
	"log"
	"net"
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
	arrival   string
	rate      float64
	backend   string
	drivers   int
	role      string
	coord     string
	index     int
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

// runLoad is the -load mode: the million-session tier, either a single
// local process, one member of a wire-paced fleet, or the coordinator
// pacing that fleet.
func runLoad(opts loadOptions) {
	switch opts.role {
	case "local":
		if opts.drivers > 1 {
			runLoadLocalFleet(opts)
			return
		}
		runLoadLocal(opts)
	case "coordinator":
		runLoadCoordinator(opts)
	case "driver":
		runLoadDriver(opts)
	default:
		log.Fatalf("unknown -role %q (want local, coordinator or driver)", opts.role)
	}
}

// loadConfig translates the flag set into a LoadConfig for one driver
// process of a K-way fleet (index 0 of 1 in single-process mode).
func loadConfig(opts loadOptions, index, count int) experiment.LoadConfig {
	cfg := experiment.LoadConfig{
		Seed:        opts.seed,
		Sessions:    opts.sessions,
		Shards:      opts.shards,
		Mix:         eb.Shopping,
		DriverIndex: index,
		DriverCount: count,
	}
	switch opts.arrival {
	case "closed", "":
	case "open":
		cfg.OpenLoop = true
		cfg.Rate = opts.rate
	default:
		log.Fatalf("unknown -arrival %q (want closed or open)", opts.arrival)
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
		if opts.role != "local" || count > 1 {
			log.Fatal("-monitor needs the local single-driver role: each fleet member would fold its own partial aggregate")
		}
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

func describeLoad(opts loadOptions) string {
	if opts.arrival == "open" {
		return fmt.Sprintf("open-loop %.0f sessions/s", opts.rate)
	}
	return fmt.Sprintf("closed-loop %d sessions", opts.sessions)
}

// runLoadLocal drives the whole population in this process.
func runLoadLocal(opts loadOptions) {
	ls, err := experiment.NewLoadStack(loadConfig(opts, 0, 1))
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
	log.Printf("load tier: %s over %d shard(s) for %v of virtual time",
		describeLoad(opts), ls.Driver.Shards(), opts.duration)
	start := time.Now()
	ls.Run(opts.duration)
	elapsed := time.Since(start)
	fmt.Printf("completed %d interactions (%d failed, %d arrivals shed) in %v wall time\n",
		ls.Driver.Completed(), ls.Driver.Failed(), ls.Driver.Dropped(),
		elapsed.Truncate(time.Millisecond))
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

// runLoadLocalFleet runs the K-way wire protocol in-process over pipes:
// K driver nodes and a coordinator, the deployment topology without the
// processes.
func runLoadLocalFleet(opts loadOptions) {
	k := opts.drivers
	coord := eb.NewLoadCoordinator(opts.duration, 0)
	conns := make([]net.Conn, k)
	errCh := make(chan error, k)
	stacks := make([]*experiment.LoadStack, k)
	for i := 0; i < k; i++ {
		ls, err := experiment.NewLoadStack(loadConfig(opts, i, k))
		if err != nil {
			log.Fatal(err)
		}
		defer ls.Close()
		stacks[i] = ls
		node, err := ls.Node(opts.duration)
		if err != nil {
			log.Fatal(err)
		}
		local, remote := net.Pipe()
		conns[i] = local
		go func() { errCh <- node.Serve(remote) }()
	}
	log.Printf("load tier: %s over %d in-process driver(s) x %d shard(s) for %v of virtual time",
		describeLoad(opts), k, opts.shards, opts.duration)
	start := time.Now()
	if err := coord.Run(conns); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := <-errCh; err != nil {
			log.Fatalf("driver node: %v", err)
		}
	}
	for _, conn := range conns {
		conn.Close()
	}
	elapsed := time.Since(start)
	fmt.Printf("fleet completed %d interactions (%d failed, %d arrivals shed) in %v wall time\n",
		coord.Completed(), coord.Failed(), coord.Dropped(), elapsed.Truncate(time.Millisecond))
	var peak uint32
	for _, v := range coord.WIPSBuckets() {
		if v > peak {
			peak = v
		}
	}
	fmt.Printf("peak WIPS %d, completion checksum %#x\n", peak, coord.Checksum())
}

// runLoadCoordinator listens for -drivers K fleet members and paces them
// through the run, printing merged telemetry at the end.
func runLoadCoordinator(opts loadOptions) {
	ln, err := net.Listen("tcp", opts.coord)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("load coordinator on %s, waiting for %d driver(s)", ln.Addr(), opts.drivers)
	conns := make([]net.Conn, 0, opts.drivers)
	for len(conns) < opts.drivers {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, conn)
		log.Printf("driver %d/%d connected from %s", len(conns), opts.drivers, conn.RemoteAddr())
	}
	coord := eb.NewLoadCoordinator(opts.duration, 0)
	start := time.Now()
	if err := coord.Run(conns); err != nil {
		log.Fatal(err)
	}
	for _, conn := range conns {
		conn.Close()
	}
	elapsed := time.Since(start)
	fmt.Printf("fleet completed %d interactions (%d failed, %d arrivals shed) in %v wall time\n",
		coord.Completed(), coord.Failed(), coord.Dropped(), elapsed.Truncate(time.Millisecond))
	var peak uint32
	for _, v := range coord.WIPSBuckets() {
		if v > peak {
			peak = v
		}
	}
	fmt.Printf("peak WIPS %d, completion checksum %#x\n", peak, coord.Checksum())
}

// runLoadDriver builds this process's share of the fleet and serves the
// coordinator's pacing protocol until FIN.
func runLoadDriver(opts loadOptions) {
	ls, err := experiment.NewLoadStack(loadConfig(opts, opts.index, opts.drivers))
	if err != nil {
		log.Fatal(err)
	}
	defer ls.Close()
	conn, err := net.Dial("tcp", opts.coord)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	log.Printf("driver %d/%d: %s over %d shard(s), paced by %s",
		opts.index, opts.drivers, describeLoad(opts), ls.Driver.Shards(), opts.coord)
	node, err := ls.Node(opts.duration)
	if err != nil {
		log.Fatalf("driver: %v", err)
	}
	if err := node.Serve(conn); err != nil {
		log.Fatalf("driver: %v", err)
	}
	fmt.Printf("driver %d done: %d interactions (%d failed, %d shed), checksum %#x\n",
		opts.index, ls.Driver.Completed(), ls.Driver.Failed(), ls.Driver.Dropped(),
		ls.Driver.Checksum())
}
