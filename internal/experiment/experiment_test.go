package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eb"
	"repro/internal/rootcause"
	"repro/internal/tpcw"
)

// quickCfg runs shortened scenarios with a smaller population so the whole
// suite stays test-friendly; the full-scale runs live in cmd/experiments
// and the benchmarks.
var quickCfg = Config{TimeScale: 0.35, Seed: 42, EBs: 50, Items: 500, Customers: 300}

func TestTableI(t *testing.T) {
	r := TableI(quickCfg)
	if !r.Pass || !strings.Contains(r.Text, "MySQL") {
		t.Fatalf("TableI = %+v", r)
	}
}

func TestFig2(t *testing.T) {
	r := Fig2(quickCfg)
	if !r.Pass {
		t.Fatalf("Fig2 failed:\n%s", r)
	}
	if !strings.Contains(r.Text, "legend") {
		t.Fatal("Fig2 missing map rendering")
	}
}

func TestFig3(t *testing.T) {
	r := Fig3(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("Fig3 failed:\n%s", r)
	}
}

func TestFig4(t *testing.T) {
	r := Fig4(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("Fig4 failed:\n%s", r)
	}
}

func TestFig5(t *testing.T) {
	r := Fig5(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("Fig5 failed:\n%s", r)
	}
}

func TestFig6(t *testing.T) {
	r := Fig6(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("Fig6 failed:\n%s", r)
	}
}

func TestFig7(t *testing.T) {
	r := Fig7(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("Fig7 failed:\n%s", r)
	}
}

func TestE8(t *testing.T) {
	r := E8CPUThreadLeaks(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("E8 failed:\n%s", r)
	}
}

func TestE9(t *testing.T) {
	r := E9PinpointCoupled(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("E9 failed:\n%s", r)
	}
}

func TestE10(t *testing.T) {
	r := E10TimeToFailure(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("E10 failed:\n%s", r)
	}
}

func TestA1(t *testing.T) {
	r := A1MonitoringLevels(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("A1 failed:\n%s", r)
	}
}

func TestA2(t *testing.T) {
	r := A2SizingPolicies(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("A2 failed:\n%s", r)
	}
}

func TestStackInjectErrors(t *testing.T) {
	s, err := NewStack(StackConfig{Seed: 1, Scale: tpcw.Scale{Items: 50, Customers: 20, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.InjectLeak("ghost", KB, 10, 1); err == nil {
		t.Fatal("leak into ghost servlet accepted")
	}
}

func TestScalePhases(t *testing.T) {
	in := []eb.Phase{{Duration: time.Hour, EBs: 50}}
	out := scalePhases(in, 0.5)
	if out[0].Duration != 30*time.Minute {
		t.Fatalf("scaled = %v", out[0].Duration)
	}
	// Floor of one minute.
	out = scalePhases(in, 0.0001)
	if out[0].Duration != time.Minute {
		t.Fatalf("floored = %v", out[0].Duration)
	}
	// Factor 1 and 0 return input as-is.
	if got := scalePhases(in, 1); got[0] != in[0] {
		t.Fatal("identity scale changed phases")
	}
}

func TestRenderHelpers(t *testing.T) {
	tb := NewTable("a", "b").Row(1, 2.5).Row("x", "y")
	s := tb.String()
	if !strings.Contains(s, "2.50") || !strings.Contains(s, "x") {
		t.Fatalf("table = %s", s)
	}
	if sparkline(nil) != "" {
		t.Fatal("empty sparkline not empty")
	}
	if got := sparkline([]float64{0, 1}); len([]rune(got)) != 2 {
		t.Fatalf("sparkline = %q", got)
	}
	if fmtBytes(512) != "512B" || fmtBytes(2048) != "2.0KB" ||
		!strings.HasSuffix(fmtBytes(3*MB), "MB") || !strings.HasSuffix(fmtBytes(2<<30), "GB") {
		t.Fatal("fmtBytes wrong")
	}
	r := rootcause.PaperMap{}.Rank("memory", []rootcause.ComponentData{
		{Name: "svc.A", Consumption: 100, Usage: 10},
		{Name: "svc.B", Consumption: 10, Usage: 100},
	})
	m := quadrantMap(r, map[string]string{"svc.A": "A", "svc.B": "B"})
	if !strings.Contains(m, "legend") || !strings.Contains(m, "A=svc.A") {
		t.Fatalf("map = %s", m)
	}
}

func TestResultRendering(t *testing.T) {
	r := Result{ID: "X", Title: "t", Expected: "e", Observed: "o", Pass: true, Text: "body"}
	if !strings.Contains(r.String(), "REPRODUCED") || !strings.Contains(r.String(), "body") {
		t.Fatal("Result.String incomplete")
	}
	r.Pass = false
	if !strings.Contains(r.Verdict(), "NOT REPRODUCED") {
		t.Fatal("failed verdict wrong")
	}
}

func TestE11(t *testing.T) {
	r := E11StrategyComparison(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("E11 failed:\n%s", r)
	}
}

func TestA3(t *testing.T) {
	r := A3MixSensitivity(quickCfg)
	t.Log(r.Verdict())
	if !r.Pass {
		t.Fatalf("A3 failed:\n%s", r)
	}
}

// TestHistoryPointsRoundTrip checks that the recorded history gives back
// the instants it was given — identical values for virtual-clock instants
// (UTC, no monotonic reading) and equal instants for wall-clock ones — and
// that memory points exist only for rounds that measured a size.
func TestHistoryPointsRoundTrip(t *testing.T) {
	h := &history{rounds: make(map[string][]stamped)}
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	virtual := []time.Time{t0, t0.Add(time.Second), t0.Add(1500 * time.Millisecond), t0.Add(3*time.Second + time.Nanosecond)}
	for i, ts := range virtual {
		h.ObserveSample(ts, []core.ComponentSample{{Component: "c", Usage: int64(i), Size: int64(i), SizeOK: i%2 == 0}})
	}
	for i, p := range h.series("c", core.ResourceCPU) {
		if p.T != virtual[i] {
			t.Fatalf("point %d at %v, want %v", i, p.T, virtual[i])
		}
	}
	mem := h.series("c", core.ResourceMemory)
	if len(mem) != 2 || mem[0].V != 0 || mem[1].V != 2 || mem[1].T != virtual[2] {
		t.Fatalf("memory points = %v, want the two measured rounds", mem)
	}
	now := time.Now()
	h.ObserveSample(now, []core.ComponentSample{{Component: "w"}})
	if p := h.series("w", core.ResourceCPU); len(p) != 1 || !p[0].T.Equal(now) {
		t.Fatalf("wall-clock instant %v read back as %v", now, p)
	}
}
