package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/jmx"
	"repro/internal/rootcause"
)

func TestDataUnknownResource(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Manager().Data("plutonium"); err == nil {
		t.Fatal("unknown resource accepted")
	}
	r := f.Manager().Rank("plutonium", fakeStrategy{})
	if len(r.Entries) != 0 {
		t.Fatal("unknown resource produced entries")
	}
}

type fakeStrategy struct{}

func (fakeStrategy) Name() string { return "fake" }
func (fakeStrategy) Rank(resource string, data []rootcause.ComponentData) rootcause.Ranking {
	return rootcause.Ranking{Resource: resource, Strategy: "fake"}
}

func TestTimeToExhaustionWithoutHeap(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Manager().TimeToExhaustion(); got != time.Duration(math.MaxInt64) {
		t.Fatalf("heapless TTE = %v, want +inf sentinel", got)
	}
}

func TestInstrumentRollbackOnProxyConflict(t *testing.T) {
	w := aspect.NewWeaver(nil)
	f, err := New(Options{Weaver: w})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-occupy the AC proxy name so registration fails.
	if err := f.Server().Register(ACProxyName("svc.A"), jmx.NewBean("conflict")); err != nil {
		t.Fatal(err)
	}
	comp := &leakyComponent{}
	if err := f.InstrumentComponent("svc.A", comp); err == nil {
		t.Fatal("instrumentation with proxy conflict accepted")
	}
	// The rollback must leave no trace: the size target and the manager
	// record are gone.
	if _, err := f.ObjectSizeAgent().Measure("svc.A"); err == nil {
		t.Fatal("size target leaked after rollback")
	}
	for _, c := range f.Manager().Components() {
		if c == "svc.A" {
			t.Fatal("manager record leaked after rollback")
		}
	}
}

// TestInstrumentDuplicateKeepsOriginal: a rejected second instrumentation
// of a name must leave the first one whole — its size target measurable
// and its memory series growing.
func TestInstrumentDuplicateKeepsOriginal(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	orig := &leakyComponent{}
	orig.Retain(1 << 20)
	if err := f.InstrumentComponent("svc.A", orig); err != nil {
		t.Fatal(err)
	}
	if err := f.InstrumentComponent("svc.A", &leakyComponent{}); err == nil {
		t.Fatal("duplicate instrumentation accepted")
	}
	n, err := f.ObjectSizeAgent().Measure("svc.A")
	if err != nil || n < 1<<20 {
		t.Fatalf("original size target after rejected duplicate: %d, %v", n, err)
	}
	f.Manager().Sample(time.Unix(0, 0))
	if pts := f.Manager().SizeSeries("svc.A"); len(pts) != 1 {
		t.Fatalf("memory series after rejected duplicate = %v", pts)
	}
}

func TestBadPointcutOption(t *testing.T) {
	if _, err := New(Options{Weaver: aspect.NewWeaver(nil), Pointcut: "bogus("}); err == nil {
		t.Fatal("bad pointcut option accepted")
	}
}

func TestManagerSizeSeriesUnknownComponent(t *testing.T) {
	f, err := New(Options{Weaver: aspect.NewWeaver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if pts := f.Manager().SizeSeries("ghost"); pts != nil {
		t.Fatalf("ghost series = %v", pts)
	}
}
