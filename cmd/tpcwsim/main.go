// Command tpcwsim runs the monitored TPC-W simulation with a configurable
// leak injection and serves the JMX management plane over HTTP while it
// runs, so cmd/agingmon (the external front-end) can interrogate the
// manager agent live.
//
// Usage:
//
//	tpcwsim [-addr :9990] [-duration 1h] [-ebs 50] [-leak tpcw.home]
//	        [-leaksize 102400] [-leakn 100] [-scenario steady] [-hold]
//	        [-nodes 1] [-leaknode node2] [-transport inproc] [-rejuvenate]
//
// The -scenario flag picks the phase schedule the browser driver runs,
// the workload shape the detectors are exposed to: steady (one flat
// phase), shift (the mix walks browsing → shopping → ordering and the
// population doubles), diurnal (a sinusoidal population cycle) or burst
// (a 4× flash crowd mid-run). With -detect (on by default) the streaming
// detectors run off every sampling round; watch them live with
//
//	agingmon -url http://localhost:9990 watch memory
//
// With -nodes N (N > 1) the simulation becomes a cluster: N full
// application-server nodes behind a round-robin balancer, each shipping
// its sampling rounds to the cluster aggregator, whose bean is served on
// the management plane instead of a single manager. The leak is then
// armed on -leaknode only, so the cluster verdict must name that (node,
// component) pair:
//
//	tpcwsim -nodes 3 -leaknode node2 &
//	agingmon nodes
//	agingmon cluster memory
//	agingmon cluster-watch memory
//
// -rejuvenate (cluster mode) closes the loop: the rejuvenation
// controller subscribes to the aggregator's verdicts and drains,
// micro-reboots and re-admits the flagged node through the balancer and
// the control channel, while the run keeps serving. Inspect it live:
//
//	tpcwsim -nodes 3 -leaknode node2 -rejuvenate &
//	agingmon rejuv
//	agingmon rejuv-history
//
// -transport picks how rounds travel from the nodes to the aggregator:
// inproc (direct calls) or binary (the delta-encoded wire codec over a
// per-node connection) — verdicts are transport-independent by
// construction. With -batch K (binary transport only) each node's
// forwarder packs K rounds into one BATCH frame before writing; -lanes
// sizes the aggregator's sharded ingest plane (0 = the package default).
//
// With -load the command runs the million-session load tier instead of
// the monitored testbed: the same driver and struct-of-arrays session
// population, spread over per-core event-engine shards, each session
// thinking TPC-W think times between requests:
//
//	tpcwsim -load -sessions 1000000 -shards 4 -duration 2m
//
// Sessions map to shards by id, so any -shards produces identical results
// on the model backend.
//
// -load -monitor (container backend) attaches the full monitoring plane
// to the load tier: each shard's framework samples its container stack
// and ships rounds over a batched binary wire into the sharded
// aggregator, and the run prints rounds ingested, ingest rate and
// verdict (fold) latency — the fleet-scale measurement the aggregation
// plane exists for. Size -workers for the offered load
// (a 50-worker default container sheds almost everything a fleet-scale
// population throws at it), and optionally arm the leak on one shard so
// the verdict has something to name:
//
//	tpcwsim -load -backend container -monitor -sessions 1000000 -shards 4 \
//	        -workers 1000 -leakshard 1 -monitor-interval 5s -duration 2m
//
// -load -cpuprofile cpu.prof -memprofile mem.prof profile that run end to
// end (go tool pprof reads the files); a run that dies in log.Fatal
// leaves them truncated.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eb"
	"repro/internal/experiment"
	"repro/internal/jmx"
	"repro/internal/jmxhttp"
	"repro/internal/profiling"
	"repro/internal/rejuv"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

func main() {
	var (
		addr     = flag.String("addr", ":9990", "JMX HTTP adapter listen address")
		duration = flag.Duration("duration", time.Hour, "virtual experiment duration")
		ebs      = flag.Int("ebs", 50, "emulated browser population")
		leak     = flag.String("leak", tpcw.CompHome, "component to inject a memory leak into ('' disables)")
		leakSize = flag.Int("leaksize", 100<<10, "leak bytes per injection")
		leakN    = flag.Int("leakn", 100, "the paper's N: uniform [0,N] requests between injections")
		seed     = flag.Uint64("seed", 42, "random seed")
		scenario = flag.String("scenario", "steady", "workload shape: steady, shift, diurnal or burst")
		doDetect = flag.Bool("detect", true, "attach the streaming aging detectors")
		hold     = flag.Bool("hold", false, "keep serving the management plane after the run ends")
		nodes    = flag.Int("nodes", 1, "cluster size (1 = the paper's single-node testbed)")
		leakNode = flag.String("leaknode", "node2", "node to arm the leak on in cluster mode")
		trans    = flag.String("transport", "inproc", "cluster round transport: inproc or binary")
		rejuvOn  = flag.Bool("rejuvenate", false, "cluster mode: actuate verdicts — drain, micro-reboot, probation, re-admit")
		batch    = flag.Int("batch", 0, "rounds per BATCH frame on the binary transport (0/1 = one round per frame)")
		lanes    = flag.Int("lanes", 0, "aggregator ingest lanes (0 = package default)")

		load      = flag.Bool("load", false, "run the million-session load tier instead of the monitored testbed")
		sessions  = flag.Int("sessions", 100000, "load tier: closed-loop session population")
		shards    = flag.Int("shards", 1, "load tier: per-core event-engine shards")
		backend   = flag.String("backend", "model", "load tier: backend, model or container")
		monitor   = flag.Bool("monitor", false, "load tier: attach the monitoring plane (container backend only)")
		workers   = flag.Int("workers", 0, "load tier: container workers per shard (0 = servlet default of 50; size for the offered load at large populations)")
		leakShard = flag.Int("leakshard", -1, "load tier: arm the -leak injection on this shard index (-1 = no injection)")
		monIntvl  = flag.Duration("monitor-interval", 30*time.Second, "load tier: sampling cadence of the monitoring plane")
		cpuProf   = flag.String("cpuprofile", "", "load tier: write a CPU profile of the run to this path")
		memProf   = flag.String("memprofile", "", "load tier: write a heap profile at the end of the run to this path")
	)
	flag.Parse()

	if *load {
		stopProfiles, err := profiling.Start(*cpuProf, *memProf)
		if err != nil {
			log.Fatal(err)
		}
		runLoad(loadOptions{
			duration:  *duration,
			sessions:  *sessions,
			shards:    *shards,
			backend:   *backend,
			seed:      *seed,
			monitor:   *monitor,
			interval:  *monIntvl,
			workers:   *workers,
			leak:      *leak,
			leakShard: *leakShard,
			leakSize:  *leakSize,
			leakN:     *leakN,
			batch:     *batch,
			lanes:     *lanes,
		})
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *nodes > 1 {
		if !*doDetect {
			// Cluster verdicts are computed by the aggregator's per-node
			// detector banks; a cluster without them has no output.
			log.Printf("-detect=false has no effect with -nodes > 1: the aggregator always runs per-node detectors")
		}
		runCluster(*addr, *duration, *ebs, *leak, *leakSize, *leakN, *seed, *scenario, *leakNode, *nodes, *hold, *trans, *batch, *lanes, *rejuvOn)
		return
	}
	if *rejuvOn {
		log.Printf("-rejuvenate needs a cluster (-nodes > 1): a single node cannot be drained")
	}

	stack, err := experiment.NewStack(experiment.StackConfig{
		Seed:      *seed,
		Monitored: true,
		Detect:    *doDetect,
		Mix:       eb.Shopping,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	if *leak != "" {
		if _, err := stack.InjectLeak(*leak, *leakSize, *leakN, *seed); err != nil {
			log.Fatal(err)
		}
		log.Printf("injected %dB/N=%d memory leak into %s", *leakSize, *leakN, *leak)
	}

	notifBuf := jmxhttp.NewNotificationBuffer(stack.Framework.Server(), 0)
	defer notifBuf.Close()
	servePlane(*addr, stack.Framework.Server(), notifBuf)

	log.Printf("running %v of virtual time at %d EBs (%s scenario)", *duration, *ebs, *scenario)
	start := time.Now()
	runScenario(stack.Driver, *scenario, *duration, *ebs)
	log.Printf("done: %d interactions (%d failed) in %v wall time",
		stack.Driver.Completed(), stack.Driver.Failed(), time.Since(start).Truncate(time.Millisecond))

	ranking := stack.Framework.Manager().Map(core.ResourceMemory)
	fmt.Println(ranking.String())
	if top, ok := ranking.Top(); ok {
		fmt.Printf("top aging suspect: %s (score %.3f)\n", top.Name, top.Score)
	}
	if stack.Detectors != nil {
		if rep := stack.Detectors.Report(core.ResourceMemory); rep != nil {
			fmt.Println(rep.String())
			if top, ok := rep.Top(); ok {
				fmt.Printf("online verdict: %s aging on memory (slope %.4g/s since round %d)\n",
					top.Component, top.Score, top.FirstAlarmRound)
			} else {
				fmt.Println("online verdict: no component currently flagged on memory")
			}
		}
	}
	tte := stack.Framework.Manager().TimeToExhaustion()
	fmt.Printf("estimated time to heap exhaustion: %v\n", tte.Truncate(time.Second))

	holdOpen(*hold, *addr)
}

// runCluster is the -nodes N mode: a full cluster behind a balancer with
// the aggregator's bean on the management plane.
func runCluster(addr string, duration time.Duration, ebs int, leak string, leakSize, leakN int, seed uint64, scenario, leakNode string, nodes int, hold bool, transport string, batch, lanes int, rejuvenate bool) {
	cfg := experiment.ClusterConfig{
		Nodes:       nodes,
		Seed:        seed,
		Mix:         eb.Shopping,
		IngestLanes: lanes,
	}
	if rejuvenate {
		cfg.Rejuv = &rejuv.Config{} // package defaults
	}
	switch transport {
	case "inproc", "":
	case "binary":
		cfg.Link.Wire = true
	case "gob":
		log.Fatal("-transport gob was removed; use binary")
	default:
		log.Fatalf("unknown -transport %q (want inproc or binary)", transport)
	}
	if batch > 1 {
		if !cfg.Link.Wire {
			log.Fatalf("-batch needs -transport binary (got %q)", transport)
		}
		cfg.Link.BatchRounds = batch
	}
	cs, err := experiment.NewClusterStack(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cs.Close()
	if leak != "" {
		if _, err := cs.Node(leakNode).InjectLeak(leak, leakSize, leakN, seed); err != nil {
			log.Fatal(err)
		}
		log.Printf("injected %dB/N=%d memory leak into %s on %s", leakSize, leakN, leak, leakNode)
	}

	notifBuf := jmxhttp.NewNotificationBuffer(cs.Server, 0)
	defer notifBuf.Close()
	servePlane(addr, cs.Server, notifBuf)

	log.Printf("running %v of virtual time at %d EBs over %d nodes (%s scenario)",
		duration, ebs, nodes, scenario)
	start := time.Now()
	runScenario(cs.Driver, scenario, duration, ebs)
	if err := cs.Sync(); err != nil {
		log.Fatal(err)
	}
	log.Printf("done: %d interactions (%d failed) in %v wall time; session spread %v",
		cs.Driver.Completed(), cs.Driver.Failed(), time.Since(start).Truncate(time.Millisecond),
		cs.Balancer.Spread())

	var published, pubErrs, dropped int64
	for _, n := range cs.Nodes {
		f := n.Forwarder()
		published += f.Rounds()
		pubErrs += f.Errors()
		dropped += f.Dropped()
	}
	fmt.Printf("wire: %d rounds published, %d publish errors, %d dropped after a failed write\n",
		published, pubErrs, dropped)
	fmt.Printf("aggregator: %d rounds ingested, %d shed at the admission gate, %d notifications dropped\n",
		cs.Aggregator.TotalRounds(), cs.Aggregator.ShedRounds(), cs.Aggregator.DroppedNotifications())

	if cs.Rejuv != nil {
		st := cs.Rejuv.Stats()
		fmt.Printf("actuation: %d micro-reboots freed %dB, %d rollbacks, %d control losses, %d forced drains, %d cluster-wide vetoes\n",
			st.Rejuvenations, st.FreedBytes, st.Rollbacks, st.ControlLost, st.ForcedDrains, st.ClusterWideVetoes)
		for _, ev := range cs.Rejuv.History() {
			fmt.Printf("  epoch %4d  %-8s %s -> %s  %s\n", ev.Epoch, ev.Node, ev.From, ev.To, ev.Note)
		}
	}
	if rep := cs.Aggregator.Report(core.ResourceMemory); rep != nil {
		fmt.Println(rep.String())
		if top, ok := rep.Top(); ok {
			scope := "node-local"
			if top.ClusterWide {
				scope = "cluster-wide"
			}
			fmt.Printf("cluster verdict: %s aging on memory (%s, since epoch %d)\n",
				top.Pair(), scope, top.FirstEpoch)
		} else {
			fmt.Println("cluster verdict: no (node, component) pair currently flagged on memory")
		}
	}
	holdOpen(hold, addr)
}

// servePlane serves the JMX HTTP adapter for a management-plane server.
func servePlane(addr string, server *jmx.Server, buf *jmxhttp.NotificationBuffer) {
	go func() {
		display := addr
		if strings.HasPrefix(display, ":") {
			display = "localhost" + display
		}
		log.Printf("JMX HTTP adapter on %s (try: agingmon -url http://%s names)", addr, display)
		handler := jmxhttp.NewHandlerWithNotifications(server, buf)
		if err := http.ListenAndServe(addr, handler); err != nil {
			log.Fatalf("jmx adapter: %v", err)
		}
	}()
}

func holdOpen(hold bool, addr string) {
	if hold {
		log.Printf("holding; management plane stays on %s (Ctrl-C to exit)", addr)
		select {}
	}
}

// runScenario drives the chosen workload shape over the run duration; a
// -duration or -ebs the driver cannot schedule ends the process.
func runScenario(driver *eb.ShardedDriver, scenario string, duration time.Duration, ebs int) {
	var phases []eb.Phase
	switch scenario {
	case "steady":
		phases = []eb.Phase{{Duration: duration, EBs: ebs, Mix: driver.Mix()}}
	case "shift":
		third := duration / 3
		phases = []eb.Phase{
			{Duration: third, EBs: ebs, Mix: eb.Browsing},
			{Duration: third, EBs: ebs, Mix: eb.Shopping},
			{Duration: duration - 2*third, EBs: 2 * ebs, Mix: eb.Ordering},
		}
	case "diurnal":
		profile := sim.DiurnalProfile(float64(ebs), float64(ebs)/2, duration)
		phases = eb.ProfileSchedule(profile, duration, duration/12, driver.Mix())
	case "burst":
		profile := sim.BurstProfile(float64(ebs), float64(ebs)*4, duration/3, duration/10)
		phases = eb.ProfileSchedule(profile, duration, duration/30, driver.Mix())
	default:
		log.Fatalf("unknown scenario %q (want steady, shift, diurnal or burst)", scenario)
	}
	if err := driver.RunSchedule(phases, nil); err != nil {
		log.Fatal(err)
	}
}
