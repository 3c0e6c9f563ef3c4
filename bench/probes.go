package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/aspect"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eb"
	"repro/internal/rejuv"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

// Layer probes run after the timed section of a traced run: they call
// public functions of one layer on the end-state stack (or on inputs
// captured from the run) and report that layer's cost in isolation.
// README.md records which end-to-end metric each is expected to move.

// meanNs runs fn n times and returns the mean wall time of one call.
func meanNs(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// meanNsWithin is meanNs that stops early once budget is spent (after at
// least three calls): a DAO scan costs microseconds on one end-state
// database and a tenth of a second on another. It reads the clock on
// every call, so it is for calls that cost microseconds or more.
func meanNsWithin(maxN int, budget time.Duration, fn func()) (ns float64, n int) {
	start := time.Now()
	for n < maxN && (n < 3 || time.Since(start) < budget) {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), n
}

// interactionMetric names a per-interaction metric: the component name
// ("tpcw.best_sellers") is already in layer.name form.
func interactionMetric(comp, suffix string) string { return comp + "." + suffix }

// submitLayerMetrics derives the servlet and per-interaction metrics from
// the servlet.submit spans. every is the span sampling period (1 = every
// request has a span).
func submitLayerMetrics(res *result, spans []span, every int) {
	var total int64
	perInter := make([][]float64, len(tpcw.Interactions))
	perTotal := make([]int64, len(tpcw.Interactions))
	for _, s := range spans {
		if s.Name != spanSubmit {
			continue
		}
		total += s.dur()
		perTotal[s.Tag] += s.dur()
		perInter[s.Tag] = append(perInter[s.Tag], float64(s.dur())/1e3)
	}
	all := durationsUs(spans, spanSubmit)
	res.SpanWallS = float64(total) * float64(every) / 1e9
	res.add("servlet.submit_wall_share", res.SpanWallS/res.WallS, "share")
	res.addN("servlet.submit_us_p50", percentile(all, 50), "us", len(all))
	res.addN("servlet.submit_us_p99", percentile(all, 99), "us", len(all))
	res.infoHighestPercentile("servlet.submit_us", all)
	// An interaction's time_share is its share of the timed wall, so the
	// fourteen shares sum to servlet.submit_wall_share and each bounds what
	// speeding that interaction up can save end to end.
	for i, comp := range tpcw.Interactions {
		share := float64(perTotal[i]) * float64(every) / 1e9 / res.WallS
		sort.Float64s(perInter[i])
		res.add(interactionMetric(comp, "time_share"), share, "share")
		res.addN(interactionMetric(comp, "submit_us_p50"), percentile(perInter[i], 50), "us", len(perInter[i]))
	}
}

// sampleLayerMetrics derives the sampling-round metrics: core.sample self
// time (the span minus its cluster.publish child) and the publish cost.
func sampleLayerMetrics(res *result, spans []span) {
	self := selfTimes(spans)
	var sampleSelf []float64
	var publishNs, publishes int64
	for _, s := range spans {
		switch s.Name {
		case spanSample:
			sampleSelf = append(sampleSelf, float64(self[s.ID])/1e3)
		case spanPublish:
			publishNs += s.dur()
			publishes++
		}
	}
	sort.Float64s(sampleSelf)
	res.addN("core.sample_self_us_p50", percentile(sampleSelf, 50), "us", len(sampleSelf))
	res.addN("core.sample_self_us_p99", percentile(sampleSelf, 99), "us", len(sampleSelf))
	if publishes > 0 {
		res.addN("cluster.publish_ns_per_round", float64(publishNs)/float64(publishes), "ns", int(publishes))
	}
}

// objsizeProbe times the object-size walk of one sampling round: Measure
// over every named component of fw.
func objsizeProbe(res *result, fw *core.Framework, components []string) {
	agent := fw.ObjectSizeAgent()
	const rounds = 200
	ns := meanNs(rounds, func() {
		for _, comp := range components {
			_, _ = agent.Measure(comp) // registered above by InstrumentComponent; the size itself is not the point
		}
	})
	res.addN("objsize.walk_us_per_round", ns/1e3, "us", rounds)
}

// roundProbes replays rounds captured from the run through the layers a
// round crosses after sampling: the detector bank, the wire codec both
// ways, and aggregator ingest (in-proc, into a fresh aggregator). The
// first round of every node — first-sighting interning, ingestSlow — is
// replayed untimed.
func roundProbes(res *result, rounds []cluster.Round, nodes int) error {
	// Per-node order must hold and nodes must advance together, or the
	// aggregator would see the late half of the fleet as stale.
	sort.SliceStable(rounds, func(i, j int) bool { return rounds[i].Seq < rounds[j].Seq })
	if len(rounds) <= nodes {
		return fmt.Errorf("round probes: captured %d rounds for %d nodes", len(rounds), nodes)
	}
	n := len(rounds) - nodes
	// replay feeds every round to step and reports the mean time of the
	// rounds after the warm first one of each node.
	replay := func(name, unit string, perUnit float64, step func(i int, r cluster.Round) error) error {
		var start time.Time
		for i, r := range rounds {
			if i == nodes {
				start = time.Now()
			}
			if err := step(i, r); err != nil {
				return fmt.Errorf("round probes: %s: %w", name, err)
			}
		}
		res.addN(name, float64(time.Since(start).Nanoseconds())/perUnit/float64(n), unit, n)
		return nil
	}

	// detect: five monitors per node, fed through core.AppendObservations.
	configs := core.ResourceDetectorConfigs(detectConfig)
	banks := make(map[string][]*detect.Monitor)
	var obs []detect.Observation
	if err := replay("detect.observe_us_per_round", "us", 1e3, func(_ int, r cluster.Round) error {
		bank := banks[r.Node]
		if bank == nil {
			for _, resource := range core.DetectorResources {
				bank = append(bank, detect.NewMonitor(resource, configs[resource]))
			}
			banks[r.Node] = bank
		}
		for i, resource := range core.DetectorResources {
			obs = core.AppendObservations(obs[:0], resource, r.Samples)
			bank[i].Observe(r.Time, obs)
		}
		return nil
	}); err != nil {
		return err
	}

	// codec: one single-round frame per round (the copy kept for decoding
	// is a ~100-byte memmove beside the encode of a 14-sample round), then
	// decode the stream.
	enc := cluster.NewBinaryEncoder()
	frames := make([][]byte, 0, len(rounds))
	var frame []byte
	if err := replay("cluster.encode_ns_per_round", "ns", 1, func(_ int, r cluster.Round) error {
		frame = enc.AppendRound(frame[:0], r)
		frames = append(frames, append([]byte(nil), frame...))
		return nil
	}); err != nil {
		return err
	}
	dec := cluster.NewBinaryDecoder()
	if err := replay("cluster.decode_ns_per_round", "ns", 1, func(i int, _ cluster.Round) error {
		payload := frames[i]
		if i == 0 {
			payload = payload[4:] // stream magic precedes the first frame
		}
		size, w := binary.Uvarint(payload)
		if w <= 0 || int(size) != len(payload)-w {
			return fmt.Errorf("frame %d has a bad length prefix", i)
		}
		_, err := dec.DecodeFrame(payload[w:])
		return err
	}); err != nil {
		return err
	}

	// ingest: the same rounds through NewInProc into a fresh aggregator,
	// folds included.
	names := make([]string, nodes)
	for i := range names {
		names[i] = rounds[i].Node
	}
	agg := newAggregator(names...)
	tr := cluster.NewInProc(agg)
	if err := replay("cluster.ingest_ns_per_round", "ns", 1, func(i int, r cluster.Round) error {
		err := tr.Publish(r)
		if i == len(rounds)-1 {
			agg.SyncFolds()
		}
		return err
	}); err != nil {
		return err
	}
	if got := agg.TotalRounds(); got != int64(len(rounds)) {
		return fmt.Errorf("round probes: replay ingested %d of %d rounds", got, len(rounds))
	}
	return nil
}

// The rejuv probe's collaborators: a balancer with nothing pinned and a
// sender that acks every command at once.
type stubBalancer struct{}

func (stubBalancer) Drain(string) bool         { return true }
func (stubBalancer) CompleteDrain(string) int  { return 0 }
func (stubBalancer) Readmit(string, int) bool  { return true }
func (stubBalancer) PinnedSessions(string) int { return 0 }
func (stubBalancer) Inflight(string) int       { return 0 }

type stubSender struct{}

func (stubSender) SendControl(_ string, kind cluster.ControlKind, _ string, _ int, done func(cluster.ControlAck, error)) {
	if done != nil {
		done(cluster.ControlAck{Kind: kind, OK: true}, nil)
	}
}

// rejuvProbe feeds the run's own epoch events to a fresh controller.
func rejuvProbe(res *result, events []cluster.EpochEvent) {
	if len(events) == 0 {
		return
	}
	ctl := rejuv.New(rejuv.Config{}, stubBalancer{}, stubSender{})
	start := time.Now()
	for _, ev := range events {
		ctl.ObserveEpoch(ev)
	}
	res.addN("rejuv.observe_epoch_ns", float64(time.Since(start).Nanoseconds())/float64(len(events)), "ns", len(events))
}

// generatorProbe runs the same session population against eb.ModelTarget:
// what the load generator itself costs, the floor under
// interactions_per_s.
func generatorProbe(cfg eb.ShardedConfig) (wallS float64, interactions int) {
	driver := eb.NewShardedDriver(cfg, nil)
	start := time.Now()
	driver.Run(mixDuration, nil)
	return time.Since(start).Seconds(), int(driver.Completed())
}

// lightGeneratorProbe times light_pages' own generator: the same walkers
// building and releasing every request, nothing invoked.
func lightGeneratorProbe(cfg runConfig) float64 {
	requests, walkers := lightSizes(cfg.Scale)
	gen, err := newLightGen(cfg.Seed, walkers)
	if err != nil {
		return 0 // the same matrix compiled for the run itself
	}
	start := time.Now()
	for i := 0; i < requests; i++ {
		servlet.ReleaseRequest(gen.next(i % walkers))
	}
	return time.Since(start).Seconds()
}

// shardScalingProbe compares two engine shards with one, at 1/32 of the
// workload's population per shard (the probe has to fit beside the traced
// run), on unmonitored container stacks. Information only: two shards on
// two hardware threads share them with the runtime and swing by ten
// percent and more.
func shardScalingProbe(res *result, cfg runConfig, mix eb.Mix) error {
	sessions, _ := mixSizes(cfg.Scale)
	perShard := max(sessions/32, 100)
	rate := func(shards int) (float64, error) {
		var stacks []*appStack
		var buildErr error
		driver := eb.NewShardedDriver(mixDriverConfig(cfg, mix, shards, perShard*shards),
			func(_ int, engine *sim.Engine) eb.Target {
				app, err := newAppStack(engine, cfg.Seed+1)
				if err != nil {
					buildErr = err
					return nil
				}
				stacks = append(stacks, app)
				return app.container
			})
		defer func() {
			for _, app := range stacks {
				app.container.Stop()
			}
		}()
		if buildErr != nil {
			return 0, buildErr
		}
		start := time.Now()
		driver.Run(mixDuration, nil)
		return float64(driver.Completed()) / time.Since(start).Seconds(), nil
	}
	one, err := rate(1)
	if err != nil {
		return err
	}
	two, err := rate(2)
	if err != nil {
		return err
	}
	res.add("sim.shard_scaling_efficiency", two/(2*one), "ratio")
	return nil
}

// daoProbes times the tpcw DAO methods and the sqldb operations under
// them, with the DAOs' own query shapes, on a pooled connection over the
// end-state database. The writing probes run last.
func daoProbes(res *result, app *appStack) error {
	conn := app.container.Pool().Acquire()
	defer app.container.Pool().Release(conn)
	weaver := aspect.NewWeaver(nil)
	catalog, orders := tpcw.NewCatalogDAO(weaver), tpcw.NewOrderDAO(weaver)

	ordersLen, err := app.tableLen(tpcw.TableOrders)
	if err != nil {
		return err
	}
	linesLen, err := app.tableLen(tpcw.TableOrderLine)
	if err != nil {
		return err
	}
	res.add("sqldb.orders_rows_end", float64(ordersLen), "count")
	res.add("sqldb.order_line_rows_end", float64(linesLen), "count")

	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	subject := func(i int) string { return tpcw.Subjects[i%len(tpcw.Subjects)] }
	items := int64(app.app.Scale().Items)

	// Scans get a time budget each: on light_pages' end state (tens of
	// thousands of orders) one best-sellers call costs a tenth of a second.
	const scanBudget = 150 * time.Millisecond
	timeScan := func(name string, maxN int, fn func() error) {
		ns, n := meanNsWithin(maxN, scanBudget, func() { keep(fn()) })
		res.addN(name, ns/1e3, "us", n)
	}
	i := 0
	timeScan("tpcw.dao.best_sellers_us", 48, func() error {
		i++
		_, err := catalog.BestSellers(conn, subject(i))
		return err
	})
	timeScan("tpcw.dao.search_us", 96, func() error {
		i++
		_, err := catalog.Search(conn, "title", subject(i))
		return err
	})
	timeScan("tpcw.dao.new_products_us", 240, func() error {
		i++
		_, err := catalog.NewProducts(conn, subject(i))
		return err
	})
	res.addN("tpcw.dao.item_by_id_ns", meanNs(20000, func() {
		i++
		_, err := catalog.ItemByID(conn, int64(i)%items+1)
		keep(err)
	}), "ns", 20000)

	var latest int64
	timeScan("sqldb.select_latest_order_us", 48, func() error {
		rows, err := conn.Select(tpcw.TableOrders, sqldb.Query{}.Ordered("o_id", true).Limited(1))
		if len(rows) == 1 {
			latest = rows[0][0].(int64)
		}
		return err
	})
	timeScan("sqldb.select_order_lines_us", 48, func() error {
		_, err := conn.Select(tpcw.TableOrderLine, sqldb.Where("ol_o_id", sqldb.Gt, latest-3333))
		return err
	})
	res.addN("sqldb.get_pk_ns", meanNs(50000, func() {
		i++
		_, _, err := conn.Get(tpcw.TableItem, int64(i)%items+1)
		keep(err)
	}), "ns", 50000)

	cart := &tpcw.Cart{}
	for k := int64(1); k <= 3; k++ {
		cart.Add(k, 1, 9.5)
	}
	res.addN("tpcw.dao.order_create_us", meanNs(200, func() {
		_, err := orders.Create(conn, 1, cart, 0)
		keep(err)
	})/1e3, "us", 200)
	res.addN("sqldb.insert_ns", meanNs(2000, func() {
		_, err := conn.Insert(tpcw.TableOrderLine, sqldb.Row{nil, latest, int64(1), int64(1), 0.0})
		keep(err)
	}), "ns", 2000)
	if probeErr != nil {
		return fmt.Errorf("dao probes: %w", probeErr)
	}
	return nil
}

// aspectProbes times a woven no-op handle bare and under the core AC.
func aspectProbes(res *result, scale float64) {
	noop := func(...any) (any, error) { return nil, nil }
	bare := aspect.NewWeaver(sim.NewVirtualClock()).Weave("bench.noop", "Service", noop)
	n := scaled(2000000, scale, 1000)
	res.addN("aspect.dispatch_ns_nomatch", meanNs(n, func() { _, _ = bare() }), "ns", n)

	advisedWeaver := aspect.NewWeaver(sim.NewVirtualClock())
	if _, err := core.New(core.Options{Weaver: advisedWeaver}); err != nil {
		res.check(false, "aspect probe: %v", err)
		return
	}
	advised := advisedWeaver.Weave("bench.noop", "Service", noop)
	n = scaled(1000000, scale, 1000)
	res.addN("aspect.dispatch_ns_advised", meanNs(n, func() { _, _ = advised() }), "ns", n)
}

// adviceProbe replays the light_pages stream in alternating blocks on a
// monitored and an unmonitored stack built from the same seed: the
// difference is what AC advice, the agents and the sampling rounds add to
// an interaction.
func adviceProbe(res *result, cfg runConfig) error {
	mon, err := buildLightStack(cfg, true)
	if err != nil {
		return err
	}
	defer mon.app.container.Stop()
	bare, err := buildLightStack(cfg, false)
	if err != nil {
		return err
	}
	defer bare.app.container.Stop()
	const blocks = 4
	block := scaled(100000, cfg.Scale, lightSampleEvery)
	var monNs, bareNs time.Duration
	for b := 0; b < blocks; b++ {
		from, to := b*block, (b+1)*block
		start := time.Now()
		failed := mon.serve(from, to, nil)
		monNs += time.Since(start)
		start = time.Now()
		failed += bare.serve(from, to, nil)
		bareNs += time.Since(start)
		if failed > 0 {
			return fmt.Errorf("advice probe: %d responses not OK", failed)
		}
	}
	n := blocks * block
	bareNsPer := float64(bareNs.Nanoseconds()) / float64(n)
	res.addN("servlet.invoke_ns_unmonitored", bareNsPer, "ns", n)
	res.addN("core.advice_ns_per_interaction", float64(monNs.Nanoseconds())/float64(n)-bareNsPer, "ns", n)
	return nil
}
