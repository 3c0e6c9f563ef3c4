package eb

import (
	"strings"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jvmheap"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

func TestMatrixValidAllMixes(t *testing.T) {
	for _, mix := range []Mix{Browsing, Shopping, Ordering} {
		if err := TransitionMatrix(mix).Validate(); err != nil {
			t.Errorf("%v matrix invalid: %v", mix, err)
		}
	}
}

func TestMatrixValidateCatchesErrors(t *testing.T) {
	bad := Matrix{"ghost": {{To: tpcw.CompHome, Weight: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown row accepted")
	}
	bad = Matrix{tpcw.CompHome: {{To: "ghost", Weight: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown target accepted")
	}
	bad = Matrix{tpcw.CompHome: {{To: tpcw.CompHome, Weight: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	bad = Matrix{tpcw.CompHome: {{To: tpcw.CompHome, Weight: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-weight row accepted")
	}
}

func TestMixString(t *testing.T) {
	if Browsing.String() != "browsing" || Shopping.String() != "shopping" ||
		Ordering.String() != "ordering" || Mix(9).String() != "unknown" {
		t.Fatal("Mix.String wrong")
	}
}

func TestUnknownMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mix did not panic")
		}
	}()
	TransitionMatrix(Mix(42))
}

// emulatedBrowser returns a one-slot session table with session id bound: one
// emulated browser, stepped by hand.
func emulatedBrowser(id int64, seed uint64, mix Mix, items, customers int) *sessionTable {
	tb := newSessionTable(1, seed, sim.NewZipfTable(items, 0.8), compileMatrix(TransitionMatrix(mix)), unameVocabulary(customers))
	tb.bind(0, id)
	return tb
}

// nextInteraction steps the browser once and returns what it requested.
func nextInteraction(tb *sessionTable) string {
	req := tb.buildRequest(0)
	defer servlet.ReleaseRequest(req)
	return req.Interaction
}

func TestBrowserDeterminism(t *testing.T) {
	mk := func() []string {
		b := emulatedBrowser(3, 42, Shopping, 100, 50)
		var seq []string
		for i := 0; i < 50; i++ {
			seq = append(seq, nextInteraction(b))
		}
		return seq
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("browser walk diverged at step %d", i)
		}
	}
}

func TestBrowserStartsAtHome(t *testing.T) {
	b := emulatedBrowser(0, 1, Shopping, 100, 50)
	req := b.buildRequest(0)
	if req.Interaction != tpcw.CompHome {
		t.Fatalf("first interaction = %s", req.Interaction)
	}
	if req.SessionID != "ebs-0" {
		t.Fatalf("session = %s", req.SessionID)
	}
}

func TestBrowserFailureRestartsAtHome(t *testing.T) {
	b := emulatedBrowser(0, 1, Shopping, 100, 50)
	for b.current[0] == interIndex[tpcw.CompHome] {
		nextInteraction(b)
	}
	b.observe(0, &servlet.Response{Status: servlet.StatusServerError})
	if b.failures[0] != 1 {
		t.Fatalf("failures = %d", b.failures[0])
	}
	if at := tpcw.Interactions[b.current[0]]; at != tpcw.CompHome {
		t.Fatalf("after failure at %s, want home", at)
	}
}

func TestBrowserFollowsPageLinks(t *testing.T) {
	b := emulatedBrowser(0, 1, Shopping, 100, 50)
	nextInteraction(b)
	resp := servlet.AcquireResponse()
	resp.AddItemID(77)
	b.observe(0, resp)
	servlet.ReleaseResponse(resp)
	linked := 0
	for i := 0; i < 200; i++ {
		req := b.buildRequest(0)
		if id, ok := req.Int64Param("I_ID"); ok && id == 77 {
			linked++
		}
		servlet.ReleaseRequest(req)
	}
	if linked == 0 {
		t.Fatal("browser never followed a page link")
	}
}

func TestBrowserVisitDistribution(t *testing.T) {
	// Under the shopping mix, browse pages dominate and admin pages are
	// rare — the usage-frequency structure Figs. 5-7 rely on.
	b := emulatedBrowser(0, 123, Shopping, 1000, 100)
	visits := make(map[string]int)
	for i := 0; i < 20000; i++ {
		visits[nextInteraction(b)]++
		b.observe(0, &servlet.Response{Status: servlet.StatusOK})
	}
	if visits[tpcw.CompHome] < 2000 {
		t.Fatalf("home visits = %d, want heavy usage", visits[tpcw.CompHome])
	}
	if visits[tpcw.CompProductDetail] < 2000 {
		t.Fatalf("product_detail visits = %d", visits[tpcw.CompProductDetail])
	}
	admin := visits[tpcw.CompAdminConfirm]
	if admin >= visits[tpcw.CompHome]/20 {
		t.Fatalf("admin_confirm = %d vs home = %d; admin should be rare",
			admin, visits[tpcw.CompHome])
	}
	if visits[tpcw.CompBuyConfirm] == 0 {
		t.Fatal("shopping mix never bought anything")
	}
}

func TestOrderingMixBuysMore(t *testing.T) {
	count := func(mix Mix) int {
		b := emulatedBrowser(0, 5, mix, 1000, 100)
		buys := 0
		for i := 0; i < 20000; i++ {
			if nextInteraction(b) == tpcw.CompBuyConfirm {
				buys++
			}
			b.observe(0, &servlet.Response{Status: servlet.StatusOK})
		}
		return buys
	}
	browsing, ordering := count(Browsing), count(Ordering)
	if ordering <= browsing*2 {
		t.Fatalf("ordering mix buys (%d) not clearly above browsing (%d)", ordering, browsing)
	}
}

// newLoadedDriver builds a one-shard driver over the full application
// stack — TPC-W on the servlet container — as the experiment layer does.
func newLoadedDriver(t *testing.T, seed uint64) *ShardedDriver {
	t.Helper()
	return NewShardedDriver(ShardedConfig{Mix: Shopping, Seed: seed, Items: 100, Customers: 50},
		func(_ int, engine *sim.Engine) Target {
			weaver := aspect.NewWeaver(engine.Clock())
			db := sqldb.NewDB()
			app, err := tpcw.NewApp(db, weaver, engine.Clock(), tpcw.Scale{Items: 100, Customers: 50, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			heap := jvmheap.New(1<<28, engine.Clock())
			c := servlet.NewContainer(engine, weaver, db, heap, servlet.Config{})
			if err := app.DeployAll(c); err != nil {
				t.Fatal(err)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			return c
		})
}

// meanWIPS averages a stretch of per-second completion counts.
func meanWIPS(buckets []uint32) float64 {
	var n uint32
	for _, v := range buckets {
		n += v
	}
	return float64(n) / float64(len(buckets))
}

// hold runs one Shopping phase of ebs browsers.
func hold(t *testing.T, d *ShardedDriver, duration time.Duration, ebs int) {
	t.Helper()
	if err := d.RunSchedule([]Phase{{Duration: duration, EBs: ebs, Mix: Shopping}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDriverRunsSchedule(t *testing.T) {
	d := newLoadedDriver(t, 9)
	err := d.RunSchedule([]Phase{
		{Duration: 2 * time.Minute, EBs: 5, Mix: Shopping},
		{Duration: 3 * time.Minute, EBs: 10, Mix: Shopping},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.group.Now().Sub(sim.Epoch); got != 5*time.Minute {
		t.Fatalf("schedule ran %v, want 5m", got)
	}
	// 10 EBs × ~7s think over 5 minutes ≈ 400 requests; anything in the
	// hundreds confirms the population drove load.
	if d.Completed() < 100 {
		t.Fatalf("completed = %d, want hundreds", d.Completed())
	}
	failRatio := float64(d.Failed()) / float64(d.Completed())
	if failRatio > 0.02 {
		t.Fatalf("failure ratio %.3f, want ~0 on a healthy app", failRatio)
	}
	// The second phase doubles the population, so its per-second
	// completion rate must be clearly above the first's.
	buckets := d.WIPSBuckets()
	if first, second := meanWIPS(buckets[30:120]), meanWIPS(buckets[150:300]); second < 1.5*first {
		t.Fatalf("WIPS %.2f at 5 EBs, %.2f at 10: the population step is not in the series", first, second)
	}
}

func TestDriverPopulationScalesThroughput(t *testing.T) {
	run := func(ebs int) float64 {
		d := newLoadedDriver(t, 9)
		hold(t, d, 10*time.Minute, ebs)
		return float64(d.Completed())
	}
	small, large := run(5), run(20)
	if large < small*2.5 {
		t.Fatalf("throughput did not scale with population: 5 EBs=%v, 20 EBs=%v", small, large)
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		d := newLoadedDriver(t, 77)
		hold(t, d, 5*time.Minute, 8)
		return d.Completed(), d.Checksum()
	}
	an, ac := run()
	bn, bc := run()
	if an != bn || ac != bc {
		t.Fatalf("driver runs diverged: %d/%#x vs %d/%#x", an, ac, bn, bc)
	}
}

func TestDriverPopulationChurnAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; malloc counting is meaningless")
	}
	// Growing and retiring the population phase after phase must reuse the
	// session tables, sized once for the schedule's peak when it is armed,
	// and the engine's recycled timer entries. (The model backend, because
	// the application behind a container allocates for its own reasons.)
	d := NewShardedDriver(ShardedConfig{Seed: 9}, nil)
	const cycle = 2 * time.Minute
	var phases []Phase
	for i := 0; i < 13; i++ {
		phases = append(phases,
			Phase{Duration: cycle / 2, EBs: 30, Mix: Shopping},
			Phase{Duration: cycle / 2, EBs: 0, Mix: Ordering})
	}
	if _, err := d.start(phases); err != nil {
		t.Fatal(err)
	}
	at := d.group.Now()
	churn := func() {
		at = at.Add(cycle)
		d.advance(at, nil)
	}
	churn() // warm: the request pools and the timer arena reach steady state
	churn()
	before := d.Completed()
	if allocs := testing.AllocsPerRun(10, churn); allocs != 0 {
		t.Fatalf("population churn allocated %.1f allocs/cycle, want 0", allocs)
	}
	if d.Completed() == before {
		t.Fatal("the measured cycles completed nothing")
	}
	for slot, running := range d.shards[0].running {
		if running {
			t.Fatalf("session %d still running after the last shrink to zero", slot)
		}
	}
}

func TestDriverPanicsOnBadSchedule(t *testing.T) {
	// A schedule is rejected with an error naming the phase; Run, which has
	// no error to return, panics with it.
	d := NewShardedDriver(ShardedConfig{Sessions: 4}, nil)
	for want, phases := range map[string][]Phase{
		"empty":                      {},
		"phase 1 of 1: non-positive": {{Duration: 0, EBs: 5}},
		"phase 2 of 2: negative":     {{Duration: time.Minute, EBs: 1}, {Duration: time.Minute, EBs: -1}},
		"phase 2 of 3: unknown mix":  {{Duration: time.Minute}, {Duration: time.Minute, Mix: Mix(7)}, {Duration: 0}},
	} {
		if err := d.RunSchedule(phases, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("schedule %v: error %v, want one containing %q", phases, err, want)
		}
	}
	if d.group.Now() != sim.Epoch || d.Completed() != 0 {
		t.Error("a rejected schedule advanced the driver")
	}
	defer func() {
		if recover() == nil {
			t.Error("Run with a non-positive duration did not panic")
		}
	}()
	d.Run(0, nil)
}

func TestFig3Schedule(t *testing.T) {
	phases := Fig3Schedule()
	if len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	if phases[0].EBs != 50 || phases[1].EBs != 100 || phases[2].EBs != 200 {
		t.Fatalf("populations = %v", phases)
	}
	var total time.Duration
	for _, p := range phases {
		total += p.Duration
	}
	if total != 62*time.Minute {
		t.Fatalf("total = %v, want 62m (2+30+30)", total)
	}
}
