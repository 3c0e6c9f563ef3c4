package detect

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// fleetColumns is the five-resource bank a fleet node runs: memory,
// threads and handles as raw levels, CPU and latency per invocation with
// the production slope floor.
func fleetColumns() []Column {
	base := Config{Window: 20, MinSamples: 6, Consecutive: 3}
	perInv := base
	perInv.PerInvocation, perInv.MinSlope = true, 5e-4
	return []Column{
		{Resource: "memory", Config: base},
		{Resource: "cpu", Config: perInv},
		{Resource: "threads", Config: base},
		{Resource: "latency", Config: perInv},
		{Resource: "handles", Config: base},
	}
}

var fleetNames = func() []string {
	out := make([]string, 14)
	for c := range out {
		out[c] = fmt.Sprintf("app.comp%02d", c)
	}
	return out
}()

// fleetRows fills round r of a fleet-shaped stream: 14 components with
// flat levels and a constant per-invocation cost, component c called
// 10+c times a round; from round leakFrom on, app.comp00 leaks 100 KB a
// round.
func fleetRows(rows []Row, r, leakFrom int) {
	for c := range rows {
		usage := float64((10 + c) * r)
		row := &rows[c]
		row.Component, row.Usage, row.Missing = fleetNames[c], usage, 0
		size := 5000 * float64(c+1)
		if c == 0 && r > leakFrom {
			size += 100 << 10 * float64(r-leakFrom)
		}
		row.Values[0] = size
		row.Values[1] = usage * 1e-4 * float64(c+1)
		row.Values[2] = 2
		row.Values[3] = usage * 3e-4 * float64(c+1)
		row.Values[4] = 3
	}
}

// driveFleet runs rounds from..to of the fleet stream through b.
func driveFleet(b *Bank, from, to, leakFrom int) {
	for r := from; r <= to; r++ {
		b.Observe(sim.Epoch.Add(time.Duration(r)*30*time.Second), fleetRowsFor(b, r, leakFrom))
	}
}

func fleetRowsFor(b *Bank, r, leakFrom int) []Row {
	rows := b.Rows(len(fleetNames))
	fleetRows(rows, r, leakFrom)
	return rows
}

// mallocs counts the heap allocations of fn.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBankObserveAllocs is the bank's zero-garbage contract: once every
// component has been seen, Observe allocates nothing — through the first
// round a trend turns significant and the alarm it leads to, at steady
// state with the alarm standing, and on the first rounds after a
// snapshot restore.
func TestBankObserveAllocs(t *testing.T) {
	b := NewBank(fleetColumns())
	const leakFrom = 60
	driveFleet(b, 1, leakFrom, leakFrom)
	if n := mallocs(func() { driveFleet(b, leakFrom+1, leakFrom+40, leakFrom) }); n > 0 {
		t.Fatalf("turning significant and alarming allocated %d objects", n)
	}
	rep := b.Report(0)
	if top, ok := rep.Top(); !ok || top.Component != "app.comp00" {
		t.Fatalf("premise broken: the leak is not alarming\n%s", rep)
	}
	if n := mallocs(func() { driveFleet(b, leakFrom+41, leakFrom+140, leakFrom) }); n > 0 {
		t.Fatalf("steady state allocated %d objects over 100 rounds", n)
	}

	restored, err := RestoreBank(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if n := mallocs(func() { driveFleet(restored, leakFrom+141, leakFrom+150, leakFrom) }); n > 0 {
		t.Fatalf("the first rounds after a restore allocated %d objects", n)
	}
}

// TestBankSnapshotParity runs N rounds, snapshots, restores, and runs M
// more on both banks: every round's alarms and every column's report must
// be identical, and the final states must snapshot to the same bytes.
func TestBankSnapshotParity(t *testing.T) {
	full, cut := NewBank(fleetColumns()), NewBank(fleetColumns())
	const n, m, leakFrom = 30, 30, 20
	driveFleet(full, 1, n, leakFrom)
	driveFleet(cut, 1, n, leakFrom)
	snap := cut.Snapshot()
	restored, err := RestoreBank(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Fatal("bank snapshot encoding is not canonical")
	}
	if restored.Report(0) != nil {
		t.Fatal("a restored bank reports before its first round")
	}
	for r := n + 1; r <= n+m; r++ {
		at := sim.Epoch.Add(time.Duration(r) * 30 * time.Second)
		want := slices.Clone(full.Observe(at, fleetRowsFor(full, r, leakFrom)))
		got := restored.Observe(at, fleetRowsFor(restored, r, leakFrom))
		if !slices.Equal(got, want) {
			t.Fatalf("round %d alarms diverged after restore: %v, want %v", r, got, want)
		}
		for c := range full.cols {
			if g, w := restored.Report(c).String(), full.Report(c).String(); g != w {
				t.Fatalf("round %d column %d diverged after restore:\n%s\nwant\n%s", r, c, g, w)
			}
		}
	}
	if !bytes.Equal(full.Snapshot(), restored.Snapshot()) {
		t.Fatal("final snapshots diverged after identical post-restore rounds")
	}
}

// TestBankResetStartsOver pins Reset: the bank forgets every component
// and round, and reports nothing until its next round.
func TestBankResetStartsOver(t *testing.T) {
	b := NewBank(fleetColumns())
	driveFleet(b, 1, 40, 10)
	b.Reset()
	if b.Report(0) != nil || b.rounds != 0 {
		t.Fatal("a reset bank still reports its history")
	}
	if !bytes.Equal(b.Snapshot(), NewBank(fleetColumns()).Snapshot()) {
		t.Fatal("a reset bank differs from a new one")
	}
	driveFleet(b, 41, 41, 10)
	if rep := b.Report(0); rep == nil || rep.Round != 1 || len(rep.Components) != len(fleetNames) {
		t.Fatalf("first round after a reset: %+v", rep)
	}
}

// BenchmarkBankObserve prices one node-round of the bank. fleet is the
// shape of bench/'s fleet_rounds: five columns of 14 components at
// window 20, flat levels and a constant per-invocation cost, one
// component leaking 100 KB a round.
func BenchmarkBankObserve(b *testing.B) {
	b.Run("fleet", func(b *testing.B) {
		bank := NewBank(fleetColumns())
		const warm = 60
		driveFleet(bank, 1, warm, 0)
		if rep := bank.Report(0); len(rep.Alarms()) == 0 || math.IsNaN(rep.Components[0].Score) {
			b.Fatalf("premise broken: the leak is not alarming\n%s", rep)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := warm + 1 + i
			bank.Observe(sim.Epoch.Add(time.Duration(r)*30*time.Second), fleetRowsFor(bank, r, 0))
		}
	})
}
