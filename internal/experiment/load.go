package experiment

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// LoadBackend selects what the load tier's sessions submit to.
type LoadBackend int

const (
	// BackendModel completes requests after deterministic hash-derived
	// service times (eb.ModelTarget): the contention-free backend for
	// scale benchmarks and the shards=1-vs-N golden runs.
	BackendModel LoadBackend = iota
	// BackendContainer builds a full application stack per shard — TPC-W
	// over the servlet container with its own DB, heap and weaver — so
	// the million-session tier exercises the real serve path. Shard
	// stacks are independent (one per core), so runs stay contention-free
	// but are only deterministic per shard count: sessions sharing a
	// container interact through its heap and caches.
	BackendContainer
)

// LoadConfig sizes the load tier: the million-session counterpart of
// StackConfig, driving the closed-loop TPC-W discipline.
type LoadConfig struct {
	// Seed derives every session and service stream.
	Seed uint64
	// Sessions is the closed-loop population.
	Sessions int
	// Shards is the engine count (default 1).
	Shards int
	// Mix is the TPC-W transition mix.
	Mix eb.Mix
	// Backend picks the target; Scale sizes the container backend's
	// database.
	Backend LoadBackend
	Scale   tpcw.Scale
	// Container sizes each shard's servlet container. The zero value
	// takes the servlet defaults (50 workers, 500-deep accept queue) —
	// sized for the paper's testbed, not for fleet-scale populations:
	// at hundreds of thousands of sessions per shard the offered load
	// is tens of thousands of requests/s, and an unsized container
	// sheds almost all of it.
	Container servlet.Config

	// Monitor attaches the aggregation plane to the container backend:
	// every shard stack gets its own monitoring framework (weaver
	// instrumentation over the TPC-W servlets, sampling each
	// MonitorInterval of virtual time) forwarding rounds into one shared
	// cluster Aggregator under names "shard01", "shard02", ... — so the
	// aggregator ingests real rounds concurrently from every shard
	// goroutine while the driver holds the session population. Requires
	// BackendContainer.
	Monitor bool
	// MonitorInterval is the per-shard sampling period (default 30s
	// virtual). With S shards it is also the cluster epoch cadence.
	MonitorInterval time.Duration
	// Detect tunes the aggregator's per-shard detector banks.
	Detect detect.Config
	// Link picks how each shard's rounds reach the aggregator. A wire
	// link batches 8 rounds per frame unless BatchRounds says otherwise
	// (fleet fan-in is what BATCH frames exist for).
	Link MonitorLink
	// IngestLanes sizes the aggregator's sharded ingest plane (0 = its
	// default).
	IngestLanes int
}

// LoadStack is the assembled load tier: a sharded driver and its
// per-shard backends, plus the aggregation plane when monitored.
type LoadStack struct {
	Driver *eb.ShardedDriver
	// Shards holds the per-shard application stacks, in shard order,
	// each with its monitoring attachment when LoadConfig.Monitor is set
	// (BackendContainer only; empty for the model backend).
	Shards []*Node
	// Aggregator is the shared cluster aggregator ingesting every
	// shard's sampling rounds (nil unless LoadConfig.Monitor).
	Aggregator *cluster.Aggregator
}

// NewLoadStack assembles (but does not run) the load tier.
func NewLoadStack(cfg LoadConfig) (*LoadStack, error) {
	if cfg.Scale.Seed == 0 {
		cfg.Scale.Seed = cfg.Seed + 1
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 30 * time.Second
	}
	if cfg.Link.Wire && cfg.Link.BatchRounds <= 0 {
		cfg.Link.BatchRounds = 8
	}
	ls := &LoadStack{}
	if cfg.Monitor {
		if cfg.Backend != BackendContainer {
			return nil, fmt.Errorf("experiment: LoadConfig.Monitor requires BackendContainer")
		}
		ls.Aggregator = cluster.New(cfg.Link.aggregatorConfig(cluster.Config{
			Detect:      cfg.Detect,
			IngestLanes: cfg.IngestLanes,
		}))
	}
	var assemble func(shard int, engine *sim.Engine) (eb.Target, error)
	switch cfg.Backend {
	case BackendModel: // the driver builds ModelTargets
	case BackendContainer:
		// Each shard's node samples on the shard's own engine, so rounds
		// publish from the shard's goroutine at window pace — exactly the
		// concurrent fan-in the sharded ingest lanes absorb.
		assemble = func(shard int, engine *sim.Engine) (eb.Target, error) {
			node, err := buildNode(engine, nodeConfig{
				Name:           fmt.Sprintf("shard%02d", shard+1),
				Scale:          cfg.Scale,
				Container:      cfg.Container,
				Monitored:      cfg.Monitor,
				SampleInterval: cfg.MonitorInterval,
			})
			if err == nil && cfg.Monitor {
				err = attach(ls.Aggregator, node, cfg.Link, nil)
			}
			if err != nil {
				return nil, err
			}
			if cfg.Monitor {
				node.startSampling()
			}
			ls.Shards = append(ls.Shards, node)
			return node.Container, nil
		}
	default:
		return nil, fmt.Errorf("experiment: unknown load backend %d", cfg.Backend)
	}

	shardedCfg := eb.ShardedConfig{
		Shards:    cfg.Shards,
		Seed:      cfg.Seed,
		Mix:       cfg.Mix,
		Items:     cfg.Scale.Items,
		Customers: cfg.Scale.Customers,
		Sessions:  cfg.Sessions,
	}
	var err error
	if ls.Driver, err = newDriver(shardedCfg, assemble); err != nil {
		return nil, err
	}
	if ls.Aggregator != nil {
		// Pre-register the shard membership so epoch alignment is a pure
		// function of the rounds, independent of shard-window timing.
		names := make([]string, len(ls.Shards))
		for i, sh := range ls.Shards {
			names[i] = sh.Name
		}
		ls.Aggregator.Expect(names...)
	}
	return ls, nil
}

// Shard returns the shard-th application stack (nil when out of range or
// on the model backend).
func (ls *LoadStack) Shard(shard int) *Node {
	if shard < 0 || shard >= len(ls.Shards) {
		return nil
	}
	return ls.Shards[shard]
}

// SyncMonitor flushes any partial BATCH frames and blocks until the
// aggregator has ingested and folded every round the shard forwarders
// published — the monitored-run counterpart of ClusterStack.Sync. No-op
// when the stack is unmonitored.
func (ls *LoadStack) SyncMonitor() error {
	if ls.Aggregator == nil {
		return nil
	}
	var want int64
	for _, sh := range ls.Shards {
		delivered, err := sh.flushLink()
		if err != nil {
			return err
		}
		want += delivered
	}
	return ls.Aggregator.Quiesce(want, time.Now().Add(10*time.Second))
}

// Run drives the whole load for duration.
func (ls *LoadStack) Run(duration time.Duration) {
	ls.Driver.Run(duration, nil)
}

// PeakWIPS returns the maximum per-second completion count of the run.
func (ls *LoadStack) PeakWIPS() uint32 {
	var peak uint32
	for _, v := range ls.Driver.WIPSBuckets() {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Close stops every shard's sampling, link and container (no-op for the
// model backend).
func (ls *LoadStack) Close() {
	for _, sh := range ls.Shards {
		sh.Close()
	}
}
