package repro

import (
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/jmx"
	"repro/internal/jvmheap"
	"repro/internal/monitor"
	"repro/internal/objsize"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/sqldb"
	"repro/internal/tpcw"
)

// benchCfg shrinks the paper's one-hour scenarios so every figure
// regenerates in a few seconds per iteration; cmd/experiments runs them at
// full scale. The scale floor is set by F7, whose C-overtakes-A crossover
// needs enough virtual time for the 1MB leak to accumulate. The seed is
// fixed, so each bench is also a regression check on its figure's verdict.
var benchCfg = experiment.Config{TimeScale: 0.35, Seed: 42, EBs: 50, Items: 500, Customers: 300}

func benchExperiment(b *testing.B, fn func(experiment.Config) experiment.Result) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := fn(benchCfg)
		if !res.Pass {
			b.Fatalf("experiment did not reproduce:\n%s", res)
		}
	}
}

// BenchmarkTableI_Testbed regenerates Table I (testbed description).
func BenchmarkTableI_Testbed(b *testing.B) { benchExperiment(b, experiment.TableI) }

// BenchmarkFig2_TheoreticMap regenerates Fig. 2 (theoretic map).
func BenchmarkFig2_TheoreticMap(b *testing.B) { benchExperiment(b, experiment.Fig2) }

// BenchmarkFig3_OverheadThroughput regenerates Fig. 3 (throughput with and
// without monitoring under the 50→100→200 EB schedule).
func BenchmarkFig3_OverheadThroughput(b *testing.B) { benchExperiment(b, experiment.Fig3) }

// BenchmarkFig4_SingleLeak regenerates Fig. 4 (100KB leak in component A).
func BenchmarkFig4_SingleLeak(b *testing.B) { benchExperiment(b, experiment.Fig4) }

// BenchmarkFig5_FourLeaks regenerates Fig. 5 (equal leaks in A-D).
func BenchmarkFig5_FourLeaks(b *testing.B) { benchExperiment(b, experiment.Fig5) }

// BenchmarkFig6_ComposedMap regenerates Fig. 6 (manager-composed map).
func BenchmarkFig6_ComposedMap(b *testing.B) { benchExperiment(b, experiment.Fig6) }

// BenchmarkFig7_MixedSizes regenerates Fig. 7 (mixed injection sizes).
func BenchmarkFig7_MixedSizes(b *testing.B) { benchExperiment(b, experiment.Fig7) }

// BenchmarkExtCPUThreadLeaks regenerates extension E8 (CPU hog + thread
// leak, the paper's future work).
func BenchmarkExtCPUThreadLeaks(b *testing.B) { benchExperiment(b, experiment.E8CPUThreadLeaks) }

// BenchmarkExtPinpointCoupled regenerates extension E9 (coupled
// components: Pinpoint baseline vs resource map).
func BenchmarkExtPinpointCoupled(b *testing.B) { benchExperiment(b, experiment.E9PinpointCoupled) }

// BenchmarkExtTimeToFailure regenerates extension E10 (time-to-exhaustion
// estimate plus micro-reboot recovery).
func BenchmarkExtTimeToFailure(b *testing.B) { benchExperiment(b, experiment.E10TimeToFailure) }

// BenchmarkExtStrategyComparison regenerates extension E11 (strategy
// localisation accuracy vs the black-box floor).
func BenchmarkExtStrategyComparison(b *testing.B) {
	benchExperiment(b, experiment.E11StrategyComparison)
}

// BenchmarkAblationMonitoringLevels regenerates ablation A1 (overhead vs
// monitoring coverage).
func BenchmarkAblationMonitoringLevels(b *testing.B) {
	benchExperiment(b, experiment.A1MonitoringLevels)
}

// BenchmarkAblationSizingPolicy regenerates ablation A2 (object sizing
// policies).
func BenchmarkAblationSizingPolicy(b *testing.B) { benchExperiment(b, experiment.A2SizingPolicies) }

// BenchmarkAblationMixSensitivity regenerates ablation A3 (detection
// across workload mixes).
func BenchmarkAblationMixSensitivity(b *testing.B) { benchExperiment(b, experiment.A3MixSensitivity) }

// --- Real wall-clock microbenchmarks -------------------------------------
//
// The virtual-time experiments model monitoring cost; the benchmarks below
// measure the reproduction's *actual* interception overhead on this
// machine, which is the honest counterpart of the paper's 5% claim.

func rawComponent(args ...any) (any, error) { return 42, nil }

// BenchmarkAspectUnwoven measures the bare component invocation.
func BenchmarkAspectUnwoven(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rawComponent(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAspectWovenNoMatch measures a woven handle whose join point no
// aspect matches (the cost of having the weaver in the path at all).
func BenchmarkAspectWovenNoMatch(b *testing.B) {
	w := aspect.NewWeaver(nil)
	fn := w.Weave("bench.comp", "Service", rawComponent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAspectAdvised measures a woven handle with one before+after
// aspect — the AC's steady-state interception cost.
func BenchmarkAspectAdvised(b *testing.B) {
	w := aspect.NewWeaver(nil)
	count := 0
	if err := w.Register(&aspect.Aspect{
		Name:     "bench.ac",
		Pointcut: aspect.MustPointcut("within(bench.*)"),
		Before:   func(*aspect.JoinPoint) { count++ },
		After:    func(*aspect.JoinPoint) { count++ },
	}); err != nil {
		b.Fatal(err)
	}
	fn := w.Weave("bench.comp", "Service", rawComponent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAspectAdvisedDisabled measures the same handle with the aspect
// switched off at runtime — the cost of deactivated monitoring.
func BenchmarkAspectAdvisedDisabled(b *testing.B) {
	w := aspect.NewWeaver(nil)
	a := &aspect.Aspect{
		Name:     "bench.ac",
		Pointcut: aspect.MustPointcut("within(bench.*)"),
		Before:   func(*aspect.JoinPoint) {},
	}
	if err := w.Register(a); err != nil {
		b.Fatal(err)
	}
	a.SetEnabled(false)
	fn := w.Weave("bench.comp", "Service", rawComponent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStack assembles a direct-mode TPC-W container for real-request
// benchmarks and the request-path allocation soak tests.
func benchStack(b testing.TB, monitored bool) *servlet.Container {
	b.Helper()
	engine := sim.NewEngine()
	weaver := aspect.NewWeaver(engine.Clock())
	db := sqldb.NewDB()
	app, err := tpcw.NewApp(db, weaver, engine.Clock(), tpcw.Scale{Items: 500, Customers: 300, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	heap := jvmheap.New(1<<30, engine.Clock())
	container := servlet.NewContainer(engine, weaver, db, heap, servlet.Config{})
	if err := app.DeployAll(container); err != nil {
		b.Fatal(err)
	}
	if err := container.Start(); err != nil {
		b.Fatal(err)
	}
	if monitored {
		f, err := NewFramework(FrameworkOptions{Weaver: weaver, Clock: engine.Clock(), Heap: heap})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range tpcw.Interactions {
			s, _ := app.Servlet(name)
			if err := f.InstrumentComponent(name, s); err != nil {
				b.Fatal(err)
			}
		}
		// The online detectors ride the sampling rounds, not the request
		// path; attaching them here keeps the monitored benchmarks honest
		// about the full production configuration.
		if _, err := f.AttachDetectors(detect.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	return container
}

func benchRequests(b *testing.B, monitored bool) {
	container := benchStack(b, monitored)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := servlet.AcquireRequest()
		req.Interaction = tpcw.CompHome
		req.SessionID = "bench"
		req.SetInt64Param("I_ID", 5)
		resp, _ := container.Invoke(req)
		if !resp.OK() {
			b.Fatalf("request failed: %v", resp.Err)
		}
		servlet.ReleaseRequest(req)
		servlet.ReleaseResponse(resp)
	}
}

// BenchmarkRequestUnmonitored measures a real home-page request through
// the container with no monitoring attached.
func BenchmarkRequestUnmonitored(b *testing.B) { benchRequests(b, false) }

// BenchmarkRequestMonitored measures the same request with the full
// framework attached (AC + agents); compare ns/op against
// BenchmarkRequestUnmonitored for the real overhead ratio.
func BenchmarkRequestMonitored(b *testing.B) { benchRequests(b, true) }

// BenchmarkObjectSize measures the sizing agent policies on a component
// retaining a 1MB leak.
func BenchmarkObjectSize(b *testing.B) {
	type comp struct {
		LeakStore
		cache map[string][]byte
	}
	c := &comp{cache: map[string][]byte{"a": make([]byte, 4096)}}
	c.Retain(1 << 20)
	for _, policy := range []objsize.Policy{objsize.Shallow, objsize.OneLevel, objsize.Transitive} {
		sizer := objsize.New(policy)
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizer.Of(c)
			}
		})
	}
}

// BenchmarkMBeanServerInvoke measures the management-plane dispatch cost
// (the AC ↔ agent round trip of the paper's architecture).
func BenchmarkMBeanServerInvoke(b *testing.B) {
	server := jmx.NewServer(nil)
	table := monitor.NewTable()
	agent := monitor.NewInvocationAgent(table)
	if err := server.Register(agent.ObjectName(), agent.Bean()); err != nil {
		b.Fatal(err)
	}
	table.Cell("c").Record(time.Millisecond, time.Millisecond, false, true)
	name := agent.ObjectName()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Invoke(name, "CountOf", "c"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointcutMatch measures pointcut evaluation (uncached path).
func BenchmarkPointcutMatch(b *testing.B) {
	pc := aspect.MustPointcut("within(tpcw.*) && !execution(*.Init)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !pc.Matches("tpcw.home", "Service") {
			b.Fatal("unexpected non-match")
		}
	}
}

// BenchmarkLeakInjection measures the injector's per-request cost.
func BenchmarkLeakInjection(b *testing.B) {
	type comp struct{ LeakStore }
	c := &comp{}
	w := aspect.NewWeaver(nil)
	leak := &faultinject.MemoryLeak{Component: "bench.comp", Target: c, Size: 1, N: 1 << 20, Seed: 1}
	if err := w.Register(leak.Aspect()); err != nil {
		b.Fatal(err)
	}
	fn := w.Weave("bench.comp", "Service", rawComponent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}
