package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/eb"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without weaver accepted")
	}
}

func TestFrameworkRegistersEverything(t *testing.T) {
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w, Heap: jvmheap.New(1<<20, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Server().IsRegistered(ManagerName()) {
		t.Fatal("manager bean not registered")
	}
	found := f.Server().Query(monitor.QueryAllAgents())
	if len(found) != 7 {
		t.Fatalf("agents registered = %d, want 7 (incl. memory and heap-delta)", len(found))
	}
	dup := &aspect.Aspect{Name: ACAspectName, Pointcut: aspect.MustPointcut("within(*)"), Before: func(*aspect.JoinPoint) {}}
	if err := w.Register(dup); err == nil {
		t.Fatal("AC aspect not registered on weaver")
	}
}

func TestFrameworkWithoutHeapSkipsMemoryAgent(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Server().Query(monitor.QueryAllAgents())); got != 5 {
		t.Fatalf("agents = %d, want 5 without heap", got)
	}
}

type leakyComponent struct {
	faultinject.LeakStore
	calls int
}

func TestInstrumentComponentAndACProxy(t *testing.T) {
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.A", comp); err == nil {
		t.Fatal("duplicate instrumentation accepted")
	}
	if err := f.InstrumentComponent("", nil); err == nil {
		t.Fatal("empty instrumentation accepted")
	}
	if !f.Server().IsRegistered(ACProxyName("svc.A")) {
		t.Fatal("AC proxy not registered")
	}

	// Drive the component through the weaver; the AC observes it.
	fn := w.Weave("svc.A", "Service", func(args ...any) (any, error) {
		comp.calls++
		return nil, nil
	})
	for i := 0; i < 5; i++ {
		fn()
	}
	inv, err := f.Server().GetAttribute(ACProxyName("svc.A"), "Invocations")
	if err != nil || inv.(int64) != 5 {
		t.Fatalf("proxy invocations = %v, %v", inv, err)
	}
	// Runtime deactivation through the proxy.
	if err := f.Server().SetAttribute(ACProxyName("svc.A"), "Enabled", false); err != nil {
		t.Fatal(err)
	}
	fn()
	if got := f.InvocationAgent().StatsOf("svc.A").Count; got != 5 {
		t.Fatalf("AC recorded while disabled: %d", got)
	}
	if comp.calls != 6 {
		t.Fatalf("component calls = %d; disabling monitoring must not block requests", comp.calls)
	}
	if err := f.Server().SetAttribute(ACProxyName("svc.A"), "Enabled", true); err != nil {
		t.Fatal(err)
	}
	fn()
	if got := f.InvocationAgent().StatsOf("svc.A").Count; got != 6 {
		t.Fatalf("AC not re-enabled: %d", got)
	}
}

func TestACProxyObjectSize(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	before, _ := f.Server().GetAttribute(ACProxyName("svc.A"), "ObjectSizeBytes")
	comp.Retain(1 << 20)
	after, _ := f.Server().GetAttribute(ACProxyName("svc.A"), "ObjectSizeBytes")
	if after.(int64)-before.(int64) < 1<<20 {
		t.Fatalf("proxy size did not grow: %v -> %v", before, after)
	}
}

// TestManagerBeanSampleDuringPeriodicRounds invokes the Manager bean's
// Sample op in a loop from a second goroutine, recovering panics the way
// an HTTP server would, while the engine runs 1 s periodic rounds. The bean
// must stamp its round under the round lock, so it never appends an
// instant older than a periodic round, and a failed round must not leave
// the lock held: the engine has to finish its two virtual hours.
func TestManagerBeanSampleDuringPeriodicRounds(t *testing.T) {
	engine := sim.NewEngine()
	w := aspect.NewWeaver(engine.Clock())
	f, err := New(Options{Weaver: w, Clock: engine.Clock(), Heap: jvmheap.New(1<<28, engine.Clock()), SampleInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.a", &leakyComponent{}); err != nil {
		t.Fatal(err)
	}
	stop := f.StartSampling(engine)
	defer stop()

	var panics atomic.Int64
	quit := make(chan struct{})
	client := make(chan struct{})
	go func() {
		defer close(client)
		for {
			select {
			case <-quit:
				return
			default:
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panics.Add(1)
					}
				}()
				if _, err := f.Server().Invoke(ManagerName(), "Sample"); err != nil {
					t.Error(err)
				}
			}()
		}
	}()
	ran := make(chan struct{})
	go func() {
		engine.RunFor(2 * time.Hour)
		close(ran)
	}()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		close(quit)
		t.Fatalf("engine wedged after %d periodic+bean rounds (%d bean panics)", f.Manager().Samples(), panics.Load())
	}
	close(quit)
	<-client
	if n := panics.Load(); n > 0 {
		t.Fatalf("%d bean Sample calls panicked", n)
	}
}

func TestManagerSamplingAndMap(t *testing.T) {
	engine := sim.NewEngine()
	w := aspect.NewWeaver(engine.Clock())
	heap := jvmheap.New(1<<28, engine.Clock())
	f, err := New(Options{Weaver: w, Clock: engine.Clock(), Heap: heap, SampleInterval: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	leaky := &leakyComponent{}
	quiet := &leakyComponent{}
	if err := f.InstrumentComponent("svc.leaky", leaky); err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.quiet", quiet); err != nil {
		t.Fatal(err)
	}
	leakyFn := w.Weave("svc.leaky", "Service", func(args ...any) (any, error) {
		leaky.Retain(10 << 10)
		return nil, nil
	})
	quietFn := w.Weave("svc.quiet", "Service", func(args ...any) (any, error) { return nil, nil })

	stop := f.StartSampling(engine)
	defer stop()
	engine.Every(time.Second, func(time.Time) {
		leakyFn()
		quietFn()
	})
	engine.RunFor(5 * time.Minute)

	if f.Manager().Samples() < 25 {
		t.Fatalf("samples = %d", f.Manager().Samples())
	}
	ranking := f.Manager().Map(ResourceMemory)
	if top, _ := ranking.Top(); top.Name != "svc.leaky" {
		t.Fatalf("map top = %s\n%s", top.Name, ranking)
	}
	if pos := ranking.Position("svc.quiet"); pos != 2 {
		t.Fatalf("quiet at %d", pos)
	}
	// The leaky component grew over its first measured size; the quiet
	// one did not.
	data, err := f.Manager().Data(ResourceMemory)
	if err != nil || len(data) != 2 || data[0].Consumption < 250<<10 || data[1].Consumption != 0 {
		t.Fatalf("memory evidence = %+v, %v", data, err)
	}
}

func TestManagerBeanOperations(t *testing.T) {
	w := aspect.NewWeaver(nil)
	heap := jvmheap.New(1<<24, nil)
	f, err := New(Options{Weaver: w, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	server := f.Server()
	if _, err := server.Invoke(ManagerName(), "Sample"); err != nil {
		t.Fatal(err)
	}
	comps, _ := server.GetAttribute(ManagerName(), "Components")
	if got := comps.([]string); len(got) != 1 || got[0] != "svc.A" {
		t.Fatalf("Components = %v", got)
	}
	if _, err := server.Invoke(ManagerName(), "Map", ResourceMemory); err != nil {
		t.Fatal(err)
	}
	suspects, err := server.Invoke(ManagerName(), "Suspects", ResourceMemory)
	if err != nil || len(suspects.([]string)) != 1 {
		t.Fatalf("Suspects = %v, %v", suspects, err)
	}
	if _, err := server.Invoke(ManagerName(), "DeactivateAC", "svc.A"); err != nil {
		t.Fatal(err)
	}
	if w.ComponentEnabled("svc.A") {
		t.Fatal("DeactivateAC had no effect")
	}
	if _, err := server.Invoke(ManagerName(), "ActivateAC", "svc.A"); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Invoke(ManagerName(), "Suspects"); err == nil {
		t.Fatal("Suspects without args accepted")
	}
	if _, err := server.Invoke(ManagerName(), "TimeToExhaustion"); err != nil {
		t.Fatal(err)
	}
}

func TestMicroReboot(t *testing.T) {
	w := aspect.NewWeaver(nil)
	heap := jvmheap.New(1<<24, nil)
	f, err := New(Options{Weaver: w, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	comp.Retain(1 << 20)
	if err := heap.Allocate("svc.A", 1<<20); err != nil {
		t.Fatal(err)
	}
	freed := f.MicroReboot("svc.A")
	if freed != 1<<20 {
		t.Fatalf("freed = %d", freed)
	}
	if comp.LeakedBytes() != 0 {
		t.Fatal("leak store not released")
	}
	if heap.RetainedBy("svc.A") != 0 {
		t.Fatal("heap charge not released")
	}
	if f.MicroReboot("ghost") != 0 {
		t.Fatal("micro-reboot of ghost freed bytes")
	}
}

func TestSuspectNotification(t *testing.T) {
	engine := sim.NewEngine()
	w := aspect.NewWeaver(engine.Clock())
	f, err := New(Options{Weaver: w, Clock: engine.Clock(), SampleInterval: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var notifs []jmx.Notification
	f.Server().AddListener(func(n jmx.Notification) {
		if n.Type == NotifSuspect {
			notifs = append(notifs, n)
		}
	})
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("svc.A", "Service", func(args ...any) (any, error) {
		comp.Retain(100 << 10)
		return nil, nil
	})
	stop := f.StartSampling(engine)
	defer stop()
	engine.Every(time.Second, func(time.Time) { fn() })
	engine.RunFor(time.Minute)
	if len(notifs) == 0 {
		t.Fatal("no suspect notification emitted")
	}
	if len(notifs) > 2 {
		t.Fatalf("suspect notification spam: %d", len(notifs))
	}
}

func TestGlobalMonitoringToggle(t *testing.T) {
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w})
	if err != nil {
		t.Fatal(err)
	}
	fn := w.Weave("svc.A", "Service", func(args ...any) (any, error) { return nil, nil })
	fn()
	f.SetMonitoringEnabled(false)
	if f.MonitoringEnabled() {
		t.Fatal("toggle off failed")
	}
	fn()
	f.SetMonitoringEnabled(true)
	fn()
	if got := f.InvocationAgent().StatsOf("svc.A").Count; got != 2 {
		t.Fatalf("recorded = %d, want 2", got)
	}
}

// TestFullStackFig5Miniature drives the complete system — TPC-W over the
// container with EBs — with leaks in four components at Fig. 5's
// parameters (scaled down) and checks the paper's expected ordering:
// A ≈ B (heavily used pages) grow fastest, C slower, D flat.
func TestFullStackFig5Miniature(t *testing.T) {
	var f *Framework
	driver := eb.NewShardedDriver(eb.ShardedConfig{
		Mix: eb.Shopping, Seed: 5, Items: 200, Customers: 100, Sessions: 25,
	}, func(_ int, engine *sim.Engine) eb.Target {
		weaver := aspect.NewWeaver(engine.Clock())
		db := sqldb.NewDB()
		app, err := tpcw.NewApp(db, weaver, engine.Clock(), tpcw.Scale{Items: 200, Customers: 100, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		heap := jvmheap.New(1<<30, engine.Clock())
		container := servlet.NewContainer(engine, weaver, db, heap, servlet.Config{})
		if err := app.DeployAll(container); err != nil {
			t.Fatal(err)
		}
		if err := container.Start(); err != nil {
			t.Fatal(err)
		}
		f, err = New(Options{
			Weaver: weaver, Clock: engine.Clock(), Heap: heap,
			SampleInterval: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tpcw.Interactions {
			s, _ := app.Servlet(name)
			if err := f.InstrumentComponent(name, s); err != nil {
				t.Fatal(err)
			}
		}
		// Fig. 5 roles: A=home, B=product_detail (both heavily used),
		// C=best_sellers (moderate), D=admin_confirm (rare).
		inject := func(comp string) *faultinject.MemoryLeak {
			s, _ := app.Servlet(comp)
			leak := &faultinject.MemoryLeak{
				Component: comp, Target: s.(faultinject.Retainer),
				Size: 100 << 10, N: 20, Heap: heap, Seed: 11,
			}
			if err := weaver.Register(leak.Aspect()); err != nil {
				t.Fatal(err)
			}
			return leak
		}
		inject(tpcw.CompHome)
		inject(tpcw.CompProductDetail)
		inject(tpcw.CompBestSellers)
		inject(tpcw.CompAdminConfirm)

		t.Cleanup(f.StartSampling(engine))
		return container
	})
	driver.Run(20*time.Minute, nil)

	ranking := f.Manager().Map(ResourceMemory)
	posHome := ranking.Position(tpcw.CompHome)
	posDetail := ranking.Position(tpcw.CompProductDetail)
	posBest := ranking.Position(tpcw.CompBestSellers)
	posAdmin := ranking.Position(tpcw.CompAdminConfirm)
	if posHome > 2 || posDetail > 2 {
		t.Fatalf("home/detail not top-2: home=%d detail=%d\n%s", posHome, posDetail, ranking)
	}
	if posBest != 3 {
		t.Fatalf("best_sellers at %d, want 3\n%s", posBest, ranking)
	}
	if posAdmin <= 3 {
		t.Fatalf("rarely-used admin_confirm at %d, want low\n%s", posAdmin, ranking)
	}
	// D's series stays flat: its leak should essentially never fire.
	adminData, err := f.Manager().Data(ResourceMemory)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range adminData {
		if d.Name == tpcw.CompAdminConfirm && d.Consumption > float64(2<<20) {
			t.Fatalf("admin_confirm consumed %v bytes, expected near-flat", d.Consumption)
		}
	}
}

// TestMicroRebootCountersAndNotification pins the actuation bookkeeping:
// every micro-reboot increments the per-component counter, accumulates
// freed bytes, and emits an aging.rejuvenation notification — the audit
// trail the cluster controller and agingmon read.
func TestMicroRebootCountersAndNotification(t *testing.T) {
	w := aspect.NewWeaver(nil)
	heap := jvmheap.New(1<<24, nil)
	f, err := New(Options{Weaver: w, Heap: heap})
	if err != nil {
		t.Fatal(err)
	}
	var notifs []jmx.Notification
	f.Server().AddListener(func(n jmx.Notification) {
		if n.Type == NotifRejuvenation {
			notifs = append(notifs, n)
		}
	})
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err != nil {
		t.Fatal(err)
	}
	comp.Retain(1 << 10)
	f.MicroReboot("svc.A")
	comp.Retain(1 << 11)
	f.MicroReboot("svc.A")
	f.MicroReboot("svc.B") // unknown: counts, frees nothing

	counts := f.Rejuvenations()
	if counts["svc.A"] != 2 || counts["svc.B"] != 1 {
		t.Fatalf("rejuvenation counts = %v", counts)
	}
	if got := f.RejuvenationCount(); got != 3 {
		t.Fatalf("total rejuvenations = %d, want 3", got)
	}
	if len(notifs) != 3 {
		t.Fatalf("%d rejuvenation notifications, want 3", len(notifs))
	}
	if freed, ok := notifs[1].Data.(int64); !ok || freed != 1<<11 {
		t.Fatalf("notification data = %v, want freed bytes 2048", notifs[1].Data)
	}
	if !strings.Contains(notifs[1].Message, "micro-reboot #2 of svc.A") {
		t.Fatalf("notification message = %q", notifs[1].Message)
	}
	// The counters mirror onto the manager bean for remote readers.
	attr, err := f.Server().GetAttribute(ManagerName(), "Rejuvenations")
	if err != nil {
		t.Fatal(err)
	}
	beanCounts, ok := attr.(map[string]int64)
	if !ok || beanCounts["svc.A"] != 2 {
		t.Fatalf("bean Rejuvenations = %v", attr)
	}
}
