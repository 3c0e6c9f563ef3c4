package detect

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/binc"
)

// snapObs builds the round-r observation set for the snapshot parity
// workload: two components (so every float accumulation inside the
// monitor is order-independent), a steady one and a leaking one, with a
// workload mix shift at round 30 and an idle round every 11th round.
func snapObs(r int64) []Observation {
	if r%11 == 0 {
		// Idle round: no usage growth, no consumption growth.
		r = (r/11)*11 - 1
		return []Observation{
			{Component: "steady", Value: 1e6 + float64(r)*100, Usage: float64(r) * 12},
			{Component: "leaky", Value: 2e6 + float64(r)*4096, Usage: float64(r) * 4},
		}
	}
	usageA, usageB := float64(r)*12, float64(r)*4
	if r >= 30 {
		usageA, usageB = 30*12+(float64(r)-30)*4, 30*4+(float64(r)-30)*12
	}
	return []Observation{
		{Component: "steady", Value: 1e6 + float64(r)*100, Usage: usageA},
		{Component: "leaky", Value: 2e6 + float64(r)*4096, Usage: usageB},
	}
}

func snapTestConfig() Config {
	return Config{Window: 20, MinSamples: 6, Consecutive: 3}
}

// restoreMonitor restores a bank snapshot as the Monitor of its first
// column.
func restoreMonitor(data []byte) (*Monitor, error) {
	b, err := RestoreBank(data)
	if err != nil {
		return nil, err
	}
	return newMonitor(b), nil
}

func driveMonitor(m *Monitor, from, to int64, t0 time.Time) []string {
	var out []string
	for r := from; r <= to; r++ {
		rep := m.Observe(t0.Add(time.Duration(r)*30*time.Second), snapObs(r))
		out = append(out, rep.String())
	}
	return out
}

// TestMonitorSnapshotParity is the core exact-state contract: run N
// rounds, snapshot, restore into a fresh monitor, run M more rounds on
// both — every published report must be byte-identical, and the final
// states must re-snapshot to identical bytes.
func TestMonitorSnapshotParity(t *testing.T) {
	const n, m = 35, 30
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"tuned", snapTestConfig()},
		{"per-invocation", Config{Window: 16, MinSamples: 5, PerInvocation: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := NewMonitor("memory", tc.cfg)
			cut := NewMonitor("memory", tc.cfg)
			driveMonitor(full, 1, n, t0)
			driveMonitor(cut, 1, n, t0)

			snap := cut.bank.Snapshot()
			restored, err := restoreMonitor(snap)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if restored.bank.Report(0) != nil {
				t.Fatal("restored monitor must not publish a report before its first Observe")
			}
			if restored.Rounds() != full.Rounds() {
				t.Fatalf("restored rounds = %d, want %d", restored.Rounds(), full.Rounds())
			}

			wantReps := driveMonitor(full, n+1, n+m, t0)
			gotReps := driveMonitor(restored, n+1, n+m, t0)
			for i := range wantReps {
				if gotReps[i] != wantReps[i] {
					t.Fatalf("round %d diverged after restore:\nuninterrupted:\n%s\nrestored:\n%s", int64(n)+int64(i)+1, wantReps[i], gotReps[i])
				}
			}
			if !bytes.Equal(full.bank.Snapshot(), restored.bank.Snapshot()) {
				t.Fatal("final snapshots diverged after identical post-restore rounds")
			}
		})
	}
}

// TestMonitorSnapshotParityMonotonicClock repeats the parity run with a
// wall clock that carries a monotonic reading (time.Now-derived), because
// restored time origins come back wall-only: Add-derived times keep wall
// and monotonic deltas equal, so the restored detector must still agree.
func TestMonitorSnapshotParityMonotonicClock(t *testing.T) {
	const n, m = 25, 20
	t0 := time.Now()
	full := NewMonitor("memory", snapTestConfig())
	cut := NewMonitor("memory", snapTestConfig())
	driveMonitor(full, 1, n, t0)
	driveMonitor(cut, 1, n, t0)
	restored, err := restoreMonitor(cut.bank.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := driveMonitor(full, n+1, n+m, t0)
	got := driveMonitor(restored, n+1, n+m, t0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("monotonic-clock parity diverged at segment round %d:\n%s\nvs\n%s", i+1, want[i], got[i])
		}
	}
}

// TestMonitorSnapshotCanonical pins the canonical-encoding property the
// round-trip fuzz target relies on: Snapshot∘Restore∘Snapshot is the
// identity on bytes.
func TestMonitorSnapshotCanonical(t *testing.T) {
	m := NewMonitor("memory", snapTestConfig())
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	driveMonitor(m, 1, 37, t0)
	snap := m.bank.Snapshot()
	restored, err := restoreMonitor(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.bank.Snapshot(), snap) {
		t.Fatal("snapshot encoding is not canonical")
	}
}

// windowBytes returns the coded window of o.
func windowBytes(o *OnlineTrend) []byte {
	c := binc.NewEncoder(nil)
	o.codecWindow(c)
	return c.Buffer()
}

// restoreWindow decodes a coded window into a new detector of o's
// configuration.
func restoreWindow(o *OnlineTrend, data []byte) (*OnlineTrend, error) {
	r := NewOnlineTrend(o.window, o.alpha)
	c := binc.NewDecoder(data)
	if err := r.codecWindow(c); err != nil {
		return nil, err
	}
	return r, c.Done()
}

func TestTrendSnapshotRoundTrip(t *testing.T) {
	o := NewOnlineTrend(12, 0.05)
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		o.Push(t0.Add(time.Duration(i)*time.Second), float64(i*i%17))
	}
	r, err := restoreWindow(o, windowBytes(o))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Result(), r.Result()) {
		t.Fatalf("restored result %+v != %+v", r.Result(), o.Result())
	}
	if r.Seen() != o.Seen() || r.Len() != o.Len() || r.Window() != o.Window() {
		t.Fatal("restored counters differ")
	}
	// Derived state must be recounted exactly.
	if r.s != o.s || r.tieCorr != o.tieCorr {
		t.Fatalf("derived state differs: s=%d/%d tieCorr=%d/%d", r.s, o.s, r.tieCorr, o.tieCorr)
	}
	if r.SenSlope() != o.SenSlope() {
		t.Fatal("Sen slope differs after restore")
	}
	// Continued pushes stay identical.
	for i := 30; i < 45; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		o.Push(at, float64(i*i%17))
		r.Push(at, float64(i*i%17))
	}
	if !bytes.Equal(windowBytes(o), windowBytes(r)) {
		t.Fatal("trend snapshots diverged after continued pushes")
	}
}

func TestTrendSnapshotEmpty(t *testing.T) {
	o := NewOnlineTrend(8, 0.05)
	r, err := restoreWindow(o, windowBytes(o))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seen() != 0 || r.Len() != 0 {
		t.Fatal("restored empty trend not empty")
	}
}

// guardBytes returns the coded state of g.
func guardBytes(g *ShiftGuard) []byte {
	c := binc.NewEncoder(nil)
	g.Codec(c)
	return c.Buffer()
}

// restoreGuard decodes a coded guard into g.
func restoreGuard(g *ShiftGuard, data []byte) error {
	c := binc.NewDecoder(data)
	if err := g.Codec(c); err != nil {
		return err
	}
	return c.Done()
}

func TestShiftGuardSnapshotRoundTrip(t *testing.T) {
	g := NewShiftGuard()
	names, mix := []string{"a", "b"}, []float64{12, 4}
	for i := 0; i < 10; i++ {
		g.Observe(names, mix)
	}
	g.Observe(names, []float64{1, 40}) // shift
	r := NewShiftGuard()
	r.Observe(names, []float64{3, 3}) // state restore must overwrite
	if err := restoreGuard(r, guardBytes(g)); err != nil {
		t.Fatal(err)
	}
	if r.Suppressing() != g.Suppressing() || r.Distance() != g.Distance() ||
		r.Shifted() != g.Shifted() || r.LastShiftRound() != g.LastShiftRound() {
		t.Fatal("restored guard state differs")
	}
	// Continued observations agree.
	for i := 0; i < 8; i++ {
		a, b := g.Observe(names, mix), r.Observe(names, mix)
		if a != b {
			t.Fatalf("suppression diverged at continued round %d", i)
		}
	}
	if !bytes.Equal(guardBytes(g), guardBytes(r)) {
		t.Fatal("guard snapshots diverged after continued rounds")
	}
}

func TestShiftGuardSnapshotNilRef(t *testing.T) {
	g := NewShiftGuard()
	r := NewShiftGuard()
	if err := restoreGuard(r, guardBytes(g)); err != nil {
		t.Fatal(err)
	}
	if r.seeded {
		t.Fatal("an absent reference must restore as absent (next round seeds)")
	}
	// A seeded-but-calm guard restores its reference.
	g.Observe([]string{"a"}, []float64{5})
	if err := restoreGuard(r, guardBytes(g)); err != nil {
		t.Fatal(err)
	}
	if !r.seeded || len(r.ref) != 1 {
		t.Fatal("seeded reference lost in restore")
	}
}

// TestEntropySnapshotRoundTrip restores every column's entropy detector
// through a bank snapshot.
func TestEntropySnapshotRoundTrip(t *testing.T) {
	b := NewBank(fleetColumns())
	driveFleet(b, 1, 30, 10)
	r, err := RestoreBank(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.cols[0].entropy.Last(); !ok {
		t.Fatal("premise broken: the memory column's entropy was never observed")
	}
	for c := range b.cols {
		e, re := b.cols[c].entropy, r.cols[c].entropy
		lw, okw := e.Last()
		lg, okg := re.Last()
		if lw != lg || okw != okg || e.Alarming() != re.Alarming() ||
			b.cols[c].entropyStreak != r.cols[c].entropyStreak {
			t.Fatalf("column %d: restored entropy state differs", c)
		}
	}
}

// TestMonitorSnapshotGolden pins the monitor snapshot format — the v3
// bank format of a one-column bank — byte for byte. If this fails, the
// format changed: bump bankSnapVersion, or update the golden only with a
// deliberate format break.
func TestMonitorSnapshotGolden(t *testing.T) {
	m := NewMonitor("mem", Config{Window: 8, MinSamples: 4, Consecutive: 2})
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for r := int64(1); r <= 6; r++ {
		m.Observe(t0.Add(time.Duration(r)*30*time.Second), []Observation{
			{Component: "a", Value: float64(1000 + 64*r), Usage: float64(8 * r)},
			{Component: "b", Value: float64(500 + 3*r), Usage: float64(2 * r)},
		})
	}
	const want = "0301036d656d0800000000000000000402000c0002010201619b9999999999e93f01629b99999999" +
		"99c93f000000000000943c497568d6a920d13f00000c0000cd8901c2bae1d03f0180e0aaedd8b6cd" +
		"84230a050000cd8901c2bae1d03f80b09dc2df01cd8901c2bae1d03f80e0ba84bf03cd8901c2bae1" +
		"d03f8090d8c69e05cd8901c2bae1d03f80c0f588fe06cd8901c2bae1d03f02016101000000000000" +
		"4840010000000000a0954000006398b9d1088de43f80e0aaedd8b6cd84230a0500000000000000a0" +
		"914080b09dc2df010000000000a0924080e0ba84bf030000000000a093408090d8c69e0500000000" +
		"00a0944080c0f588fe060000000000a0954001620100000000000028400100000000003080400000" +
		"9664963a8dd39e3f80e0aaedd8b6cd84230a0500000000000000a07f4080b09dc2df010000000000" +
		"d07f4080e0ba84bf0300000000000080408090d8c69e05000000000018804080c0f588fe06000000" +
		"0000308040"
	got := hex.EncodeToString(m.bank.Snapshot())
	if got != want {
		t.Fatalf("monitor snapshot bytes changed:\n got %s\nwant %s", got, want)
	}
}

// monitorSnapshotV1 is the golden monitor of TestMonitorSnapshotGolden in
// the v1 format, which also carried the now-fixed tuning and a
// change-point detector flag per component.
const monitorSnapshotV1 = "01036d656d087b14ae47e17a843f0000000000000000040200333333333333c33f059a9999999999" +
	"c93f000000000000f83f000000000000000000000000000000000000080c000001333333333333c3" +
	"3f059a9999999999c93f000000000000f83f010201619b9999999999e93f01629b9999999999c93f" +
	"000000000000943c497568d6a920d13f00000c000101087b14ae47e17a843f80e0aaedd8b6cd8423" +
	"0a050000000000000000cd8901c2bae1d03f0000000000003e40cd8901c2bae1d03f000000000000" +
	"4e40cd8901c2bae1d03f0000000000805640cd8901c2bae1d03f0000000000005e40cd8901c2bae1" +
	"d03fcd8901c2bae1d03f0102016101087b14ae47e17a843f80e0aaedd8b6cd84230a050000000000" +
	"0000000000000000a091400000000000003e400000000000a092400000000000004e400000000000" +
	"a0934000000000008056400000000000a094400000000000005e400000000000a095400000000000" +
	"00a0954000000000000048400100006398b9d1088de43f016201087b14ae47e17a843f80e0aaedd8" +
	"b6cd84230a0500000000000000000000000000a07f400000000000003e400000000000d07f400000" +
	"000000004e400000000000008040000000000080564000000000001880400000000000005e400000" +
	"00000030804000000000000030804000000000000028400100009664963a8dd39e3f"

// TestSnapshotRejectsV1 feeds a v1 snapshot to the v3 decoder: it must
// be refused by its version byte, never misparsed.
func TestSnapshotRejectsV1(t *testing.T) {
	data, err := hex.DecodeString(monitorSnapshotV1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreMonitor(data); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("v1 monitor snapshot: err = %v, want binc.ErrVersion", err)
	}
}

// monitorSnapshotV2 is the golden monitor of TestMonitorSnapshotGolden in
// the v2 format, which kept one detector set per resource and wrote
// trend instants as float seconds.
const monitorSnapshotV2 = "02036d656d0800000000000000000402000c000002010201619b9999999999e93f01629b99999999" +
	"99c93f000000000000943c497568d6a920d13f00000c000101087b14ae47e17a843f80e0aaedd8b6" +
	"cd84230a050000000000000000cd8901c2bae1d03f0000000000003e40cd8901c2bae1d03f000000" +
	"0000004e40cd8901c2bae1d03f0000000000805640cd8901c2bae1d03f0000000000005e40cd8901" +
	"c2bae1d03fcd8901c2bae1d03f0102016101087b14ae47e17a843f80e0aaedd8b6cd84230a050000" +
	"0000000000000000000000a091400000000000003e400000000000a092400000000000004e400000" +
	"000000a0934000000000008056400000000000a094400000000000005e400000000000a095400000" +
	"000000a0954000000000000048400100006398b9d1088de43f016201087b14ae47e17a843f80e0aa" +
	"edd8b6cd84230a0500000000000000000000000000a07f400000000000003e400000000000d07f40" +
	"0000000000004e400000000000008040000000000080564000000000001880400000000000005e40" +
	"0000000000308040000000000030804000000000000028400100009664963a8dd39e3f"

// TestSnapshotRejectsV2 feeds a v2 monitor snapshot to the v3 bank
// decoder: it must be refused by its version byte, never misparsed.
func TestSnapshotRejectsV2(t *testing.T) {
	data, err := hex.DecodeString(monitorSnapshotV2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreMonitor(data); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("v2 monitor snapshot: err = %v, want binc.ErrVersion", err)
	}
	if _, err := RestoreBank(data); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("v2 monitor snapshot as a bank: err = %v, want binc.ErrVersion", err)
	}
}

func TestSnapshotRejectsBadVersion(t *testing.T) {
	snap := NewBank(fleetColumns()).Snapshot()
	snap[0] = 99
	if _, err := RestoreBank(snap); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("future bank version: err = %v, want binc.ErrVersion", err)
	}
	gs := guardBytes(NewShiftGuard())
	gs[0] = 99
	if err := restoreGuard(NewShiftGuard(), gs); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("future shift guard version: err = %v, want binc.ErrVersion", err)
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	m := NewMonitor("memory", snapTestConfig())
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	driveMonitor(m, 1, 20, t0)
	snap := m.bank.Snapshot()
	for _, cut := range []int{1, len(snap) / 4, len(snap) / 2, len(snap) - 1} {
		if _, err := restoreMonitor(snap[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := restoreMonitor(append(append([]byte(nil), snap...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestBankSnapshotRejectsHostileCounters feeds a bank snapshot round
// counters no run of Observe reaches. A restored report lists the
// components the latest round measured, which a restored bank knows
// only as "none", so a negative round count would list every component
// at once.
func TestBankSnapshotRejectsHostileCounters(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rounds, shift int64
	}{
		{"negative rounds", -1, 0},
		{"rounds beyond the bound", maxSnapCounter + 1, 0},
		{"negative shift rounds", 10, -1},
		{"more shift rounds than rounds", 10, 11},
	} {
		b := NewBank(fleetColumns())
		driveFleet(b, 1, 10, 5)
		b.rounds, b.shiftRounds = tc.rounds, tc.shift
		if _, err := RestoreBank(b.Snapshot()); err == nil {
			t.Errorf("%s: snapshot accepted", tc.name)
		}
	}
	b := NewBank(fleetColumns())
	driveFleet(b, 1, 10, 5)
	b.shiftRounds = b.rounds
	if _, err := RestoreBank(b.Snapshot()); err != nil {
		t.Fatalf("counters in range refused: %v", err)
	}
}

// TestTrendSnapshotRejectsNonFinite overwrites the last float of a bank
// snapshot — the newest sample of the last component's last trend — with
// NaN, which the window's NaN list does not declare.
func TestTrendSnapshotRejectsNonFinite(t *testing.T) {
	b := NewBank(fleetColumns())
	driveFleet(b, 1, 8, 100)
	snap := b.Snapshot()
	copy(snap[len(snap)-8:], binc.AppendFloat(nil, math.NaN()))
	const want = `detect: bank snapshot "app.comp13"/handles: detect: trend snapshot sample 6: NaN outside the NaN list`
	if _, err := RestoreBank(snap); err == nil || err.Error() != want {
		t.Fatalf("NaN window sample: err = %v, want %q", err, want)
	}
}

// readFuzzSeed decodes a committed corpus file of a fuzz target that
// takes one []byte.
func readFuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lit, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a []byte corpus entry", path)
	}
	return []byte(s)
}

// TestSnapshotFuzzSeedOutcomes pins where the committed fuzz seeds'
// restores stop. A decoder that read a field or ran a check at another
// point of the sequence would stop elsewhere, or not at all.
func TestSnapshotFuzzSeedOutcomes(t *testing.T) {
	data := readFuzzSeed(t, "testdata/fuzz/FuzzSnapshotRoundTrip/33de975549be9bca")
	const want = "detect: trend snapshot time origin 24 with no samples"
	if _, err := RestoreBank(data); err == nil || err.Error() != want {
		t.Fatalf("seed 33de975549be9bca: err = %v, want %q", err, want)
	}
}

// FuzzSnapshotRoundTrip is the snapshot fuzz target CI smokes: any buffer
// RestoreBank accepts must re-encode to the identical bytes (canonical
// encoding), and the restored bank must survive an Observe round.
func FuzzSnapshotRoundTrip(f *testing.F) {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	empty := NewMonitor("memory", Config{})
	f.Add(empty.bank.Snapshot())
	seeded := NewMonitor("memory", snapTestConfig())
	driveMonitor(seeded, 1, 24, t0)
	f.Add(seeded.bank.Snapshot())
	perInv := NewMonitor("cpu", Config{Window: 12, PerInvocation: true})
	driveMonitor(perInv, 1, 9, t0)
	f.Add(perInv.bank.Snapshot())
	fleet := NewBank(fleetColumns())
	driveFleet(fleet, 1, 12, 6)
	f.Add(fleet.Snapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := RestoreBank(data)
		if err != nil {
			return
		}
		if got := b.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("accepted snapshot is not canonical:\n in %x\nout %x", data, got)
		}
		// The restored bank must be fully operational.
		rows := b.Rows(2)
		for i, name := range []string{"steady", "fresh"} {
			rows[i].Component, rows[i].Usage, rows[i].Missing = name, float64(i+1), 0
			for c := range rows[i].Values {
				rows[i].Values[c] = float64(i + 1)
			}
		}
		b.Observe(t0.Add(time.Hour), rows)
		for c := range b.cols {
			if b.Report(c) == nil {
				t.Fatalf("restored bank reports nothing for column %d after a round", c)
			}
		}
		if _, err := RestoreBank(b.Snapshot()); err != nil {
			t.Fatalf("re-snapshot after Observe not restorable: %v", err)
		}
	})
}
