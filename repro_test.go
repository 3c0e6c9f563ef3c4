package repro

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/experiment"
	"repro/internal/jmxhttp"
	"repro/internal/tpcw"
)

// toyComponent is a minimal instrumentable component.
type toyComponent struct {
	LeakStore
}

func TestFacadeQuickstart(t *testing.T) {
	weaver := NewWeaver(nil)
	fw, err := NewFramework(FrameworkOptions{Weaver: weaver})
	if err != nil {
		t.Fatal(err)
	}
	comp := &toyComponent{}
	if err := fw.InstrumentComponent("shop.cart", comp); err != nil {
		t.Fatal(err)
	}
	handle := weaver.Weave("shop.cart", "Service", func(args ...any) (any, error) {
		comp.Retain(64 << 10)
		return nil, nil
	})
	for i := 0; i < 10; i++ {
		if _, err := handle(); err != nil {
			t.Fatal(err)
		}
		fw.Manager().Sample(fw.Clock().Now())
	}
	ranking := fw.Manager().Map(ResourceMemory)
	top, ok := ranking.Top()
	if !ok || top.Name != "shop.cart" {
		t.Fatalf("facade ranking top = %+v", top)
	}
}

func TestFacadeJMXRemote(t *testing.T) {
	weaver := NewWeaver(nil)
	fw, err := NewFramework(FrameworkOptions{Weaver: weaver})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(jmxhttp.NewHandler(fw.Server()))
	defer ts.Close()
	client := jmxhttp.NewClient(ts.URL, nil)
	names, err := client.Names("aging:*")
	if err != nil || len(names) == 0 {
		t.Fatalf("remote names = %v, %v", names, err)
	}
	out, err := client.Invoke("aging:type=Manager", "Sample")
	if err != nil || out.(float64) < 1 {
		t.Fatalf("remote Sample = %v, %v", out, err)
	}
}

func TestFacadeStack(t *testing.T) {
	stack, err := NewStack(StackConfig{
		Seed:      3,
		Monitored: true,
		Scale:     tpcw.Scale{Items: 100, Customers: 50, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	leak, err := stack.InjectLeak(tpcw.CompHome, 64<<10, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	stack.Run(5*time.Minute, 10)
	if stack.Driver.Completed() == 0 {
		t.Fatal("no load completed through facade stack")
	}
	if leak.Injections() == 0 {
		t.Fatal("leak never fired")
	}
	top, _ := stack.Framework.Manager().Map(ResourceMemory).Top()
	if top.Name != tpcw.CompHome {
		t.Fatalf("stack top suspect = %s", top.Name)
	}
}

func TestFacadePointcuts(t *testing.T) {
	pc := MustPointcut("within(tpcw.*)")
	if !pc.Matches("tpcw.home", "Service") {
		t.Fatal("facade pointcut broken")
	}
	if _, err := aspect.ParsePointcut("bogus("); err == nil {
		t.Fatal("bad pointcut accepted")
	}
}

func TestFacadeObjectSize(t *testing.T) {
	buf := make([]byte, 4096)
	if ObjectSizeOf(buf) < 4096 {
		t.Fatal("ObjectSizeOf underestimates")
	}
}

func TestFacadeExperimentRunners(t *testing.T) {
	cfg := experiment.Config{TimeScale: 0.05, Seed: 42, EBs: 20, Items: 200, Customers: 100}
	results := make([]experiment.Result, 0, len(experiment.Experiments))
	for _, x := range experiment.Experiments {
		results = append(results, x.Run(cfg))
	}
	if len(results) != 36 {
		t.Fatalf("experiments = %d, want 36", len(results))
	}
	ids := make([]string, len(results))
	for i, r := range results {
		ids[i] = r.ID
	}
	joined := strings.Join(ids, ",")
	for _, want := range []string{"T1", "F2", "F3", "F4", "F5", "F6", "F7", "E8", "E9", "E10", "E11", "A1", "A2", "A3", "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9", "S10", "S11", "S12", "S13", "S14", "S15", "S16", "S17", "S18", "S19", "S20", "S21", "S22"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing experiment %s in %v", want, ids)
		}
	}
	// At this tiny scale only the shape-independent experiments are
	// guaranteed to pass; the full-scale verdicts live in EXPERIMENTS.md.
	for _, r := range results {
		if r.ID == "T1" || r.ID == "F2" || r.ID == "A2" {
			if !r.Pass {
				t.Fatalf("%s failed at any scale:\n%s", r.ID, r)
			}
		}
	}
}
