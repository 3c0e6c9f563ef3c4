package eb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/servlet"
	"repro/internal/sim"
)

// ShardedDriver is the load generator, from the paper's 200 EBs on one
// engine to a million sessions on one engine per core: a session-table
// population partitioned across the engines of a sim.ShardGroup. Each shard
// owns a disjoint set of session ids and a private Target, so a window
// never contends on shared state; telemetry is integer per-second
// completion buckets merged exactly at the end. Two arrival disciplines:
//
//   - ClosedLoop: a population of browsers, each cycling request → think →
//     request — the TPC-W discipline the paper drives its testbed with. A
//     phase schedule changes the population and the mix over virtual time
//     (Fig. 3's 50 → 100 → 200 EBs); Run holds Sessions browsers of Mix.
//   - OpenLoop: sessions arrive in a Poisson stream at Rate/sec and run a
//     geometric number of interactions. Open-loop arrival keeps offered
//     load independent of server latency, which the closed-loop discipline
//     cannot (slow responses throttle a closed population) — the standard
//     criticism of closed-loop aging experiments.
//
// Determinism: every session's walk is a pure function of (Seed, session
// id, schedule); arrivals are pure functions of (Seed, lane); sessions and
// lanes map to shards by modulo. Shard count changes which engine runs a
// session, never what the session does, so the merged completion trace and
// WIPS buckets are byte-identical across shard counts — pinned by the
// golden tests in sharded_test.go.

// ArrivalMode selects the load discipline.
type ArrivalMode uint8

const (
	// ClosedLoop holds a fixed think-time population (TPC-W EBs).
	ClosedLoop ArrivalMode = iota
	// OpenLoop draws session arrivals from a Poisson process.
	OpenLoop
)

// arrivalLanes fixes the number of independent Poisson arrival streams.
// Lanes exist so arrivals stay deterministic under sharding: lane l is a
// thinned Poisson stream of rate Rate/arrivalLanes owned by shard
// l % Shards, and the superposition of the lanes is the configured
// process. The count is a constant — not Shards — so the arrival sequence
// is identical no matter how many shards run it.
const arrivalLanes = 256

// ThinkMean and ThinkCap are TPC-W's think time: negative-exponential with
// a 7 s mean, truncated at 70 s.
const (
	ThinkMean = 7 * time.Second
	ThinkCap  = 70 * time.Second
)

// ShardedConfig parameterises a ShardedDriver.
type ShardedConfig struct {
	// Shards is the engine count (default 1).
	Shards int
	// Seed derives every session and lane stream.
	Seed uint64
	// Mix selects the transition matrix Run drives (a schedule names a mix
	// per phase).
	Mix Mix
	// Items / Customers mirror the database scale (defaults 1000 / 1440).
	Items     int
	Customers int

	// Sessions is the closed-loop population Run holds, and the size the
	// session tables start at (a schedule with a higher peak grows them
	// when it is armed).
	Sessions int

	// Arrival selects the discipline.
	Arrival ArrivalMode
	// Rate is the open-loop arrival rate in sessions/second.
	Rate float64
	// MeanSessionLength is the mean interactions per open-loop session,
	// geometrically distributed (default 20).
	MeanSessionLength int
	// MaxSessions caps concurrent open-loop sessions (default 65536),
	// split into per-lane admission budgets (laneCapacity). An arrival on
	// a lane at its budget is dropped and counted. Because budget, live
	// count and arrival stream are all lane-local, shedding is itself
	// deterministic across shard counts — a saturated sweep produces the
	// same drops and the same checksum for any N.
	MaxSessions int

	// RecordTrace keeps the (time, session) completion log for golden
	// comparisons. Off for the million-session benchmark: the log is the
	// only per-completion allocation in the driver.
	RecordTrace bool
}

// pacingWindow is the shard group's bounded-lag window: no shard's clock
// leads another's by more than this.
const pacingWindow = 100 * time.Millisecond

func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.Customers <= 0 {
		c.Customers = 1440
	}
	if c.MeanSessionLength <= 0 {
		c.MeanSessionLength = 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 65536
	}
	return c
}

// Target is the surface sessions submit interactions to: a single servlet
// container in the paper's one-node testbed, or a cluster balancer
// fronting N containers. *servlet.Container satisfies it directly.
type Target interface {
	// Submit enqueues one request; done runs when it completes.
	Submit(req *servlet.Request, done servlet.Completion)
	// Throughput reports the recent completion rate (requests/second).
	Throughput() float64
}

// TargetFactory builds the per-shard backend: shard i's sessions submit
// only to targets[i], so a factory returning independent stacks keeps the
// whole run contention-free. A nil factory gets a default ModelTarget.
type TargetFactory func(shard int, engine *sim.Engine) Target

// traceEvent is one completion in the golden log.
type traceEvent struct {
	atNs int64
	id   int64
}

// driverShard is the per-engine slice of the driver.
type driverShard struct {
	d      *ShardedDriver
	engine *sim.Engine
	target Target
	table  *sessionTable

	stepFn  func(time.Time, int64)
	doneFns []servlet.Completion
	free    []int32 // idle slot stack (open loop)

	// Closed loop: sessions with id >= population are retired — they stop
	// at their next step — and running marks the slots that have a think
	// timer or a request outstanding, so a phase never starts a session
	// twice. Open loop never retires (population is MaxInt64).
	population int64
	running    []bool

	laneFn     func(time.Time, int64)
	laneRng    []sim.Rand64 // by local lane index
	laneNextID []int64
	lanes      []int64 // global lane number by local index
	laneCap    []int32 // per-lane admission budget, by local index
	laneLive   []int32 // per-lane live session count, by local index
	slotLane   []int32 // bound slot -> local lane index

	completed uint64
	failed    uint64
	dropped   uint64
	checksum  uint64
	buckets   []uint32
	trace     []traceEvent
}

// ShardedDriver drives the sharded session population. Create with
// NewShardedDriver, drive with Run or RunSchedule — again to carry on from
// where the last run stopped, live sessions and all — and read the merged
// telemetry.
type ShardedDriver struct {
	cfg      ShardedConfig
	group    *sim.ShardGroup
	shards   []*driverShard
	matrices [Ordering + 1]*compiledMatrix // by Mix

	// The armed schedule: phases[next:] are still to be entered, the first
	// of them at nextAt.
	phases []Phase
	next   int
	nextAt time.Time

	stopProb float64 // open loop: P(session ends | completion)
}

// NewShardedDriver builds the group, tables and per-shard targets. The
// construction cost is O(capacity) once; steady-state driving allocates
// nothing.
func NewShardedDriver(cfg ShardedConfig, factory TargetFactory) *ShardedDriver {
	cfg = cfg.withDefaults()
	if cfg.Sessions < 0 {
		panic("eb: ShardedDriver with negative Sessions")
	}
	if cfg.Arrival == OpenLoop && cfg.Rate <= 0 {
		panic("eb: open-loop ShardedDriver needs Rate > 0")
	}
	if factory == nil {
		factory = func(_ int, engine *sim.Engine) Target {
			return NewModelTarget(engine, cfg.Seed, 5*time.Millisecond, 20*time.Millisecond, cfg.Items)
		}
	}

	zipf := sim.NewZipfTable(cfg.Items, 0.8)
	unames := unameVocabulary(cfg.Customers)

	d := &ShardedDriver{
		cfg:      cfg,
		group:    sim.NewShardGroup(cfg.Shards, pacingWindow),
		shards:   make([]*driverShard, cfg.Shards),
		stopProb: 1 / float64(cfg.MeanSessionLength),
	}
	for mix := range d.matrices {
		d.matrices[mix] = compileMatrix(TransitionMatrix(Mix(mix)))
	}

	for i := range d.shards {
		sh := &driverShard{d: d, engine: d.group.Shard(i), population: math.MaxInt64}
		if cfg.Arrival == OpenLoop {
			// Shard i owns lanes ≡ i (mod Shards). Each lane carries its
			// own admission budget — a pure function of (MaxSessions, lane)
			// — so the shard's slot capacity is the sum over its lanes and a
			// lane under budget always finds a slot.
			for lane := int64(i); lane < arrivalLanes; lane += int64(cfg.Shards) {
				sh.lanes = append(sh.lanes, lane)
				// Lane labels live above 2^32 so they never collide with
				// session labels (id+1).
				sh.laneRng = append(sh.laneRng, sim.DeriveRand64(cfg.Seed, 1<<32+uint64(lane)))
				sh.laneNextID = append(sh.laneNextID, lane)
				sh.laneCap = append(sh.laneCap, laneCapacity(cfg.MaxSessions, lane))
			}
			sh.laneLive = make([]int32, len(sh.lanes))
			sh.laneFn = sh.arrive
			// Every lane's next arrival is always pending, from here on:
			// a run picks the streams up wherever the last one left them.
			for li := range sh.lanes {
				sh.engine.ScheduleArgAfter(sh.gap(li), sh.laneFn, int64(li))
			}
		}
		sh.table = newSessionTable(0, cfg.Seed, zipf, nil, unames) // enter sets the phase's matrix
		capacity := d.shardCapacity(i, cfg.Sessions, sh)
		sh.grow(capacity)
		sh.target = factory(i, sh.engine)
		sh.stepFn = sh.step
		if cfg.Arrival == OpenLoop {
			sh.free = make([]int32, 0, capacity)
			for slot := capacity - 1; slot >= 0; slot-- {
				sh.free = append(sh.free, int32(slot))
			}
			sh.slotLane = make([]int32, capacity)
		}
		d.shards[i] = sh
	}
	return d
}

// laneCapacity is lane's share of the MaxSessions admission budget:
// a pure function of (MaxSessions, lane), so whether an arrival is
// admitted or shed never depends on shard count.
func laneCapacity(maxSessions int, lane int64) int32 {
	c := int32(maxSessions / arrivalLanes)
	if lane < int64(maxSessions%arrivalLanes) {
		c++
	}
	return c
}

// grow sizes the shard's slot-indexed state for capacity sessions.
func (sh *driverShard) grow(capacity int) {
	from := len(sh.doneFns)
	if capacity <= from {
		return
	}
	sh.table.grow(capacity)
	sh.running = grown(sh.running, capacity)
	// Reserve the event arena for the steady-state live population: one
	// timer or in-flight completion per session, plus lane/inflight slack.
	sh.engine.Reserve(capacity + capacity/8 + 1024)
	sh.doneFns = grown(sh.doneFns, capacity)
	for slot := from; slot < capacity; slot++ {
		sh.doneFns[slot] = func(_ *servlet.Request, resp *servlet.Response) {
			sh.complete(slot, resp)
		}
	}
}

// shardCapacity returns shard i's table size: its share of a closed
// population of sessions, or — open loop — the sum of its lanes' admission
// budgets (so a lane under budget always finds a free slot).
func (d *ShardedDriver) shardCapacity(i, sessions int, sh *driverShard) int {
	if d.cfg.Arrival == OpenLoop {
		capacity := 0
		for _, c := range sh.laneCap {
			capacity += int(c)
		}
		if capacity < 1 {
			capacity = 1
		}
		return capacity
	}
	capacity := sessions / d.cfg.Shards
	if i < sessions%d.cfg.Shards {
		capacity++
	}
	if capacity < 1 {
		capacity = 1
	}
	return capacity
}

// Shards reports the engine count.
func (d *ShardedDriver) Shards() int { return len(d.shards) }

// Mix reports the configured mix: the one Run walks, and the one a caller
// building its own schedule passes on to stay on it (a Phase names its mix;
// it does not inherit this one).
func (d *ShardedDriver) Mix() Mix { return d.cfg.Mix }

// start arms a schedule from the current instant without advancing time,
// replacing whatever is left of an earlier one. A schedule the driver
// cannot run is rejected with an error naming the first offending phase;
// an open-loop driver's load is set by its arrival rate, so it takes
// exactly one phase and ignores its EBs. Tables and telemetry are sized
// here for the schedule's peak and end — the instant returned — so
// driving it allocates nothing.
func (d *ShardedDriver) start(phases []Phase) (end time.Time, err error) {
	if len(phases) == 0 {
		return end, fmt.Errorf("eb: empty phase schedule")
	}
	var total time.Duration
	peak := 0
	for i, ph := range phases {
		switch {
		case ph.Duration <= 0:
			return end, fmt.Errorf("eb: phase %d of %d: non-positive duration %v", i+1, len(phases), ph.Duration)
		case ph.EBs < 0:
			return end, fmt.Errorf("eb: phase %d of %d: negative population %d", i+1, len(phases), ph.EBs)
		case ph.Mix < Browsing || ph.Mix > Ordering:
			return end, fmt.Errorf("eb: phase %d of %d: unknown mix %d", i+1, len(phases), ph.Mix)
		case d.cfg.Arrival == OpenLoop && i > 0:
			return end, fmt.Errorf("eb: phase %d of %d: an open-loop driver runs a single phase", i+1, len(phases))
		}
		total += ph.Duration
		peak = max(peak, ph.EBs)
	}
	end = d.group.Now().Add(total)
	// The per-second buckets are indexed from the epoch, so a later run
	// extends the earlier one's series.
	seconds := int(end.Sub(sim.Epoch)/time.Second) + 2
	for i, sh := range d.shards {
		if d.cfg.Arrival == ClosedLoop {
			sh.grow(d.shardCapacity(i, peak, sh))
		}
		if len(sh.buckets) < seconds {
			sh.buckets = grown(sh.buckets, seconds)
		}
	}
	d.phases = append(d.phases[:0], phases...)
	d.next = 0
	d.nextAt = d.group.Now()
	return end, nil
}

// enter makes ph the running phase: every shard walks its mix from the
// next transition on, and — closed loop — sessions 0..EBs-1 run while the
// rest retire at their next step.
func (d *ShardedDriver) enter(ph Phase) {
	for _, sh := range d.shards {
		sh.table.matrix = d.matrices[ph.Mix]
	}
	if d.cfg.Arrival == OpenLoop {
		return
	}
	for _, sh := range d.shards {
		sh.population = int64(ph.EBs)
	}
	// Shards take turns: id → shard by modulo, slot by division. Dense
	// per-shard tables, shard-count independent global ids.
	shards := int64(d.cfg.Shards)
	for id := int64(0); id < int64(ph.EBs); id++ {
		sh := d.shards[id%shards]
		slot := int(id / shards)
		if sh.running[slot] {
			continue // never stopped: its pending step finds it back in the population
		}
		if sh.table.idle(slot) {
			sh.table.bind(slot, id)
		}
		sh.running[slot] = true
		// Stagger starts across one mean think time, drawn from the
		// session's own stream so the ramp is id-deterministic. A session a
		// shrink had stopped continues that stream: it is not bound again.
		delay := time.Duration(sh.table.rng[slot].Float64() * float64(ThinkMean))
		sh.engine.ScheduleArgAfter(delay, sh.stepFn, int64(slot))
	}
}

// advance drives all shards to the given virtual instant (a barrier per
// pacing window), entering each armed phase at its boundary — after the
// events of that instant.
func (d *ShardedDriver) advance(to time.Time, onWindow func(now time.Time)) {
	for d.next < len(d.phases) && !d.nextAt.After(to) {
		d.group.RunUntil(d.nextAt, onWindow)
		ph := d.phases[d.next]
		d.next++
		d.enter(ph)
		d.nextAt = d.nextAt.Add(ph.Duration)
	}
	d.group.RunUntil(to, onWindow)
}

// RunSchedule drives the load through phases, from the current instant to
// the end of the last one.
func (d *ShardedDriver) RunSchedule(phases []Phase, onWindow func(now time.Time)) error {
	end, err := d.start(phases)
	if err != nil {
		return err
	}
	d.advance(end, onWindow)
	return nil
}

// Run drives the configured population and mix for the given duration: the
// one-phase schedule. A non-positive duration is a caller bug and panics.
func (d *ShardedDriver) Run(duration time.Duration, onWindow func(now time.Time)) {
	steady := []Phase{{Duration: duration, EBs: d.cfg.Sessions, Mix: d.cfg.Mix}}
	if err := d.RunSchedule(steady, onWindow); err != nil {
		panic(err)
	}
}

// Completed returns total completed interactions across shards.
func (d *ShardedDriver) Completed() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.completed })
}

// Failed returns total failed interactions across shards.
func (d *ShardedDriver) Failed() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.failed })
}

// Dropped returns open-loop arrivals shed for want of a session slot.
func (d *ShardedDriver) Dropped() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.dropped })
}

// Checksum returns the commutative completion fingerprint: the sum over
// all completions of a hash of (instant, session id). Equal sums across
// shard counts certify equal merged schedules without comparing traces.
func (d *ShardedDriver) Checksum() uint64 {
	return d.sum(func(sh *driverShard) uint64 { return sh.checksum })
}

func (d *ShardedDriver) sum(f func(*driverShard) uint64) uint64 {
	var total uint64
	for _, sh := range d.shards {
		total += f(sh)
	}
	return total
}

// WIPSBuckets returns the merged per-second completion counts — integer
// WIPS, exact under any shard count.
func (d *ShardedDriver) WIPSBuckets() []uint32 {
	if len(d.shards) == 0 {
		return nil
	}
	out := make([]uint32, len(d.shards[0].buckets))
	for _, sh := range d.shards {
		for i, v := range sh.buckets {
			out[i] += v
		}
	}
	return out
}

// TraceHash folds the merged completion trace — sorted by (time, session),
// a total order since a session never completes twice in one instant —
// into an FNV-1a fingerprint. Equal hashes across shard counts mean equal
// merged schedules, which is the determinism contract in one number.
func (d *ShardedDriver) TraceHash() uint64 {
	var merged []traceEvent
	for _, sh := range d.shards {
		merged = append(merged, sh.trace...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].atNs != merged[j].atNs {
			return merged[i].atNs < merged[j].atNs
		}
		return merged[i].id < merged[j].id
	})
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for _, ev := range merged {
		mix(uint64(ev.atNs))
		mix(uint64(ev.id))
	}
	return h
}

// step issues the next interaction for a bound slot. Fired by the shard
// engine via the pre-bound stepFn — no per-event closure. A session the
// current phase has retired stops here, its request in flight completed.
func (sh *driverShard) step(_ time.Time, arg int64) {
	slot := int(arg)
	if sh.table.idle(slot) {
		return
	}
	if sh.table.id[slot] >= sh.population {
		sh.running[slot] = false
		return
	}
	sh.target.Submit(sh.table.buildRequest(slot), sh.doneFns[slot])
}

// complete is the per-slot completion: account, observe, and either think
// and go again (closed loop / surviving open-loop session) or release the
// slot (geometric session end).
func (sh *driverShard) complete(slot int, resp *servlet.Response) {
	now := sh.engine.Now()
	nowNs := now.Sub(sim.Epoch).Nanoseconds()
	sh.completed++
	if !resp.OK() {
		sh.failed++
	}
	if idx := int(nowNs / int64(time.Second)); idx >= 0 && idx < len(sh.buckets) {
		sh.buckets[idx]++
	}
	// The checksum folds (instant, session) commutatively, so partial sums
	// merge by addition across shards.
	x := uint64(nowNs)*0x9e3779b97f4a7c15 ^ uint64(sh.table.id[slot])*0xff51afd7ed558ccd
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	sh.checksum += x ^ (x >> 27)
	if sh.d.cfg.RecordTrace {
		sh.trace = append(sh.trace, traceEvent{
			atNs: nowNs,
			id:   sh.table.id[slot],
		})
	}
	sh.table.observe(slot, resp)

	if sh.d.cfg.Arrival == OpenLoop && sh.table.rng[slot].Float64() < sh.d.stopProb {
		sh.table.release(slot)
		sh.laneLive[sh.slotLane[slot]]--
		sh.free = append(sh.free, int32(slot))
		return
	}
	think := time.Duration(sh.table.think(slot) * float64(time.Second))
	sh.engine.ScheduleArgAfter(think, sh.stepFn, int64(slot))
}

// gap draws lane li's next interarrival: exponential with the lane's share
// of the configured rate.
func (sh *driverShard) gap(li int) time.Duration {
	mean := float64(arrivalLanes) / sh.d.cfg.Rate // seconds between arrivals on this lane
	return time.Duration(sh.laneRng[li].Exp(mean) * float64(time.Second))
}

// arrive admits one open-loop session on lane li and schedules the lane's
// next arrival. Session ids are lane-strided (lane + k·arrivalLanes):
// globally unique and independent of shard count.
func (sh *driverShard) arrive(now time.Time, arg int64) {
	li := int(arg)
	sh.engine.ScheduleArgAfter(sh.gap(li), sh.laneFn, arg)

	id := sh.laneNextID[li]
	sh.laneNextID[li] += arrivalLanes

	// Admission is lane-local: the lane's budget, live count and rng are
	// all pure functions of (seed, lane), so shedding behaves identically
	// for any shard count — the determinism contract holds in
	// the saturated regime too, not just when nothing is shed.
	if sh.laneLive[li] >= sh.laneCap[li] {
		sh.dropped++
		return
	}
	sh.laneLive[li]++
	slot := int(sh.free[len(sh.free)-1])
	sh.free = sh.free[:len(sh.free)-1]
	sh.slotLane[slot] = int32(li)
	sh.table.bind(slot, id)
	sh.step(now, int64(slot))
}

// ModelTarget is a contention-free synthetic backend: it completes every
// request after a deterministic pseudo-random service time, publishing a
// few navigable item ids. One per shard gives the load tier a closed
// system to exercise a million sessions against without dragging in the
// full container stack — the golden determinism tests and the
// million-session benchmark run over it. Service times are a pure function
// of (seed, interaction, submit instant), so they are identical under any
// shard count.
type ModelTarget struct {
	engine *sim.Engine
	seed   uint64
	baseNs int64
	spanNs int64
	items  int64

	fireFn func(time.Time, int64)
	pend   []mtPending
	free   []int32

	completed uint64
	curSec    int64
	curCount  uint32
	prevCount uint32
}

type mtPending struct {
	req  *servlet.Request
	done servlet.Completion
}

// NewModelTarget builds a model backend on a shard's engine. Service time
// is base plus a hash-spread jitter in [0, jitter).
func NewModelTarget(engine *sim.Engine, seed uint64, base, jitter time.Duration, items int) *ModelTarget {
	if base <= 0 {
		panic("eb: ModelTarget needs base service time > 0")
	}
	if items <= 0 {
		items = 1000
	}
	t := &ModelTarget{
		engine: engine,
		seed:   seed,
		baseNs: base.Nanoseconds(),
		spanNs: jitter.Nanoseconds(),
		items:  int64(items),
	}
	t.fireFn = t.fire
	return t
}

// Submit schedules the request's completion after its service time.
func (t *ModelTarget) Submit(req *servlet.Request, done servlet.Completion) {
	nowNs := t.engine.Now().Sub(sim.Epoch).Nanoseconds()
	h := t.hash(req, nowNs)
	svc := t.baseNs
	if t.spanNs > 0 {
		svc += int64(h % uint64(t.spanNs))
	}

	var slot int32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = int32(len(t.pend))
		t.pend = append(t.pend, mtPending{})
	}
	t.pend[slot] = mtPending{req: req, done: done}
	t.engine.ScheduleArg(t.engine.Now().Add(time.Duration(svc)), t.fireFn, int64(slot)<<32|int64(uint32(h)))
}

// hash mixes the service-time entropy: seed, interaction and the submit
// instant — all shard-count independent.
func (t *ModelTarget) hash(req *servlet.Request, nowNs int64) uint64 {
	x := t.seed ^ uint64(nowNs)*0x9e3779b97f4a7c15 ^ uint64(interIndex[req.Interaction])<<56
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fire completes one pending request: a pooled OK response carrying a few
// hash-derived item ids, released after the completion returns.
func (t *ModelTarget) fire(now time.Time, arg int64) {
	slot := int32(arg >> 32)
	h := uint64(uint32(arg))
	p := t.pend[slot]
	t.pend[slot] = mtPending{}
	t.free = append(t.free, slot)

	resp := servlet.AcquireResponse()
	for i := uint64(0); i < 3; i++ {
		resp.AddItemID(1 + int64((h+i*0x9e3779b9)%uint64(t.items)))
	}
	t.completed++
	if sec := now.Sub(sim.Epoch).Nanoseconds() / int64(time.Second); sec != t.curSec {
		if sec == t.curSec+1 {
			t.prevCount = t.curCount
		} else {
			t.prevCount = 0
		}
		t.curSec = sec
		t.curCount = 0
	}
	t.curCount++

	p.done(p.req, resp)
	servlet.ReleaseResponse(resp)
	servlet.ReleaseRequest(p.req)
}

// Throughput reports the completion count of the last full second —
// enough signal for the Target interface's WIPS sampling.
func (t *ModelTarget) Throughput() float64 { return float64(t.prevCount) }

// Completed returns the total completions served.
func (t *ModelTarget) Completed() uint64 { return t.completed }

var _ Target = (*ModelTarget)(nil)
