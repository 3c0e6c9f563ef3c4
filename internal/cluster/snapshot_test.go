package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/binc"
	"repro/internal/core"
	"repro/internal/detect"
)

// feedSnap drives seqs [from, to] of the synthetic three-component
// workload into a, all nodes in lockstep.
func feedSnap(a *Aggregator, nodes []string, leaks map[string]int64, from, to int64) {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := from; seq <= to; seq++ {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		for _, n := range nodes {
			a.Ingest(syntheticRound(n, seq, at, leaks[n]))
		}
	}
}

// recordEpochs subscribes a renderer that captures every epoch event as
// a string (the event's verdict slices recycle with the report rings,
// so retaining them raw would alias).
func recordEpochs(a *Aggregator, into *[]string) {
	a.SubscribeEpochs(func(ev EpochEvent) {
		*into = append(*into, fmt.Sprintf("%+v", ev))
	})
}

// TestAggregatorSnapshotParity is the tentpole guarantee: run N epochs,
// snapshot, restore into a fresh plane, run M more — every verdict,
// report and epoch event must be identical to an uninterrupted N+M run,
// and the final durable state must match bit for bit.
func TestAggregatorSnapshotParity(t *testing.T) {
	cfg := Config{Detect: testDetect(), IngestLanes: 4}
	nodes := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node2": 4096}
	const N, M = 25, 15

	ref := New(cfg)
	var refEvents []string
	recordEpochs(ref, &refEvents)
	ref.Expect(nodes...)
	feedSnap(ref, nodes, leaks, 1, N+M)

	live := New(cfg)
	live.Expect(nodes...)
	feedSnap(live, nodes, leaks, 1, N)
	snap := live.Snapshot()

	restored := New(cfg)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := restored.Epoch(); got != N {
		t.Fatalf("restored epoch = %d, want %d", got, N)
	}
	if got := restored.TotalRounds(); got != int64(N*len(nodes)) {
		t.Fatalf("restored rounds = %d, want %d", got, N*len(nodes))
	}
	var gotEvents []string
	recordEpochs(restored, &gotEvents)
	feedSnap(restored, nodes, leaks, N+1, N+M)

	if len(refEvents) != N+M {
		t.Fatalf("reference produced %d epoch events, want %d", len(refEvents), N+M)
	}
	if len(gotEvents) != M {
		t.Fatalf("restored produced %d epoch events, want %d", len(gotEvents), M)
	}
	for i, want := range refEvents[N:] {
		if gotEvents[i] != want {
			t.Fatalf("epoch event %d diverged after restore:\n got %s\nwant %s", N+1+i, gotEvents[i], want)
		}
	}

	for _, res := range core.DetectorResources {
		if got, want := clusterVerdictsOf(restored.Report(res)), clusterVerdictsOf(ref.Report(res)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s report diverged after restore:\n got %+v\nwant %+v", res, got, want)
		}
		for _, n := range nodes {
			got, want := restored.NodeReport(n, res), ref.NodeReport(n, res)
			if (got == nil) != (want == nil) || (got != nil && got.String() != want.String()) {
				t.Errorf("%s/%s node report diverged after restore:\n got %v\nwant %v", n, res, got, want)
			}
		}
	}
	if got, want := restored.Nodes(), ref.Nodes(); !reflect.DeepEqual(got, want) {
		t.Errorf("node status diverged: %+v vs %+v", got, want)
	}

	// The decisive check: the two planes' durable state is bit-identical.
	if !bytes.Equal(restored.Snapshot(), ref.Snapshot()) {
		t.Fatalf("final snapshots differ between restored and uninterrupted runs")
	}
}

// TestAggregatorSnapshotParityPending snapshots mid-epoch: two of three
// nodes have delivered round N+1, one of them alarming, so the snapshot
// carries rounds ingested but not yet folded. The restored plane must
// fold epoch N+1 from them exactly as the uninterrupted one does.
func TestAggregatorSnapshotParityPending(t *testing.T) {
	cfg := Config{Detect: testDetect(), IngestLanes: 4}
	nodes := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node2": 4096}
	const N, M = 25, 15
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	at := t0.Add((N + 1) * 30 * time.Second)
	early := func(a *Aggregator) {
		a.Ingest(syntheticRound("node1", N+1, at, 0))
		a.Ingest(syntheticRound("node2", N+1, at, leaks["node2"]))
	}
	rest := func(a *Aggregator) {
		a.Ingest(syntheticRound("node3", N+1, at, 0))
		feedSnap(a, nodes, leaks, N+2, N+M)
	}

	ref := New(cfg)
	var refEvents []string
	recordEpochs(ref, &refEvents)
	ref.Expect(nodes...)
	feedSnap(ref, nodes, leaks, 1, N)
	early(ref)
	rest(ref)

	live := New(cfg)
	live.Expect(nodes...)
	feedSnap(live, nodes, leaks, 1, N)
	early(live)
	if got := live.Epoch(); got != N {
		t.Fatalf("epoch %d folded with node3 missing; want %d", got, N)
	}
	if rep := live.NodeReport("node2", core.ResourceMemory); rep == nil || len(rep.Alarms()) == 0 {
		t.Fatalf("node2's pending round does not alarm: %v", rep)
	}
	snap := live.Snapshot()

	restored := New(cfg)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var gotEvents []string
	recordEpochs(restored, &gotEvents)
	rest(restored)

	if len(refEvents) != N+M || len(gotEvents) != M {
		t.Fatalf("epoch events: reference %d, restored %d; want %d and %d", len(refEvents), len(gotEvents), N+M, M)
	}
	for i, want := range refEvents[N:] {
		if gotEvents[i] != want {
			t.Fatalf("epoch event %d diverged after restore:\n got %s\nwant %s", N+1+i, gotEvents[i], want)
		}
	}
	if !strings.Contains(gotEvents[0], "node2") {
		t.Fatalf("epoch %d does not carry node2's pending alarm: %s", N+1, gotEvents[0])
	}
	if !bytes.Equal(restored.Snapshot(), ref.Snapshot()) {
		t.Fatalf("final snapshots differ between restored and uninterrupted runs")
	}
}

// TestAggregatorSnapshotParityMembership exercises restore with a left
// node and a mid-stream joiner in the snapshot — churn hold, the
// inactive node's retained state, and the joiner's epoch alignment must
// all survive.
func TestAggregatorSnapshotParityMembership(t *testing.T) {
	cfg := Config{Detect: testDetect(), StaleEpochs: 4}
	base := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node2": 4096}
	const N, M = 22, 14

	drive := func(a *Aggregator) func(from, to int64) {
		return func(from, to int64) {
			t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
			for seq := from; seq <= to; seq++ {
				at := t0.Add(time.Duration(seq) * 30 * time.Second)
				for _, n := range base {
					if n == "node3" && seq > 15 {
						continue // node3 dies at seq 15
					}
					a.Ingest(syntheticRound(n, seq, at, leaks[n]))
				}
				if seq > 18 { // node4 joins late
					a.Ingest(syntheticRound("node4", seq-18, at, 0))
				}
			}
		}
	}

	ref := New(cfg)
	ref.Expect(base...)
	drive(ref)(1, N+M)

	live := New(cfg)
	live.Expect(base...)
	drive(live)(1, N)
	snap := live.Snapshot()

	restored := New(cfg)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	drive(restored)(N+1, N+M)

	if !bytes.Equal(restored.Snapshot(), ref.Snapshot()) {
		t.Fatalf("final snapshots differ with membership churn in play")
	}
	for _, res := range core.DetectorResources {
		if got, want := clusterVerdictsOf(restored.Report(res)), clusterVerdictsOf(ref.Report(res)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s report diverged: %+v vs %+v", res, got, want)
		}
	}
}

// TestAggregatorSnapshotCanonical pins Snapshot∘Restore∘Snapshot as the
// identity on bytes.
func TestAggregatorSnapshotCanonical(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2", "node3"}
	a.Expect(nodes...)
	feedSnap(a, nodes, map[string]int64{"node2": 4096}, 1, 18)
	a.Leave("node3")
	snap := a.Snapshot()

	restored := New(Config{Detect: testDetect()})
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if again := restored.Snapshot(); !bytes.Equal(again, snap) {
		t.Fatalf("snapshot not canonical: %d vs %d bytes", len(again), len(snap))
	}
}

// TestAggregatorSnapshotEmpty covers the degenerate fresh-to-fresh copy.
func TestAggregatorSnapshotEmpty(t *testing.T) {
	snap := New(Config{Detect: testDetect()}).Snapshot()
	restored := New(Config{Detect: testDetect()})
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Fatal("empty snapshot not canonical")
	}
}

func TestAggregatorRestoreRejectsUsedAggregator(t *testing.T) {
	snap := New(Config{Detect: testDetect()}).Snapshot()

	used := New(Config{Detect: testDetect()})
	used.Expect("node1")
	if err := used.Restore(snap); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Fatalf("restore into expecting aggregator: %v", err)
	}

	fed := New(Config{Detect: testDetect()})
	feedSnap(fed, []string{"node1"}, nil, 1, 2)
	if err := fed.Restore(snap); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Fatalf("restore into fed aggregator: %v", err)
	}
}

func TestAggregatorRestoreRejectsConfigMismatch(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	a.Expect("node1")
	feedSnap(a, []string{"node1"}, nil, 1, 3)
	snap := a.Snapshot()

	other := New(Config{Detect: detect.Config{Window: 30, MinSamples: 4, Consecutive: 2}})
	err := other.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("config mismatch not rejected: %v", err)
	}
}

func TestAggregatorRestoreRejectsCorruption(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	a.Expect("node1", "node2")
	feedSnap(a, []string{"node1", "node2"}, map[string]int64{"node1": 2048}, 1, 6)
	snap := a.Snapshot()

	fresh := func() *Aggregator { return New(Config{Detect: testDetect()}) }

	if err := fresh().Restore(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	bad := append([]byte(nil), snap...)
	bad[0] = 'X'
	if err := fresh().Restore(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), snap...)
	bad[4] = 99
	if err := fresh().Restore(bad); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}
	for _, cut := range []int{5, len(snap) / 4, len(snap) / 2, len(snap) - 1} {
		if err := fresh().Restore(snap[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if err := fresh().Restore(append(append([]byte(nil), snap...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}

	// The pending section: node1 has delivered round 13 alone, alarming.
	// Each case corrupts that record in a restored copy, re-snapshots it
	// and requires Restore to refuse the result.
	feedSnap(a, []string{"node1", "node2"}, map[string]int64{"node1": 2048}, 7, 12)
	feedSnap(a, []string{"node1"}, map[string]int64{"node1": 2048}, 13, 13)
	pendingSnap := a.Snapshot()
	for _, tc := range []struct {
		name, want string
		corrupt    func(st *nodeState)
	}{
		{"seq repeated", "out of order", func(st *nodeState) { st.pending = append(st.pending, st.pending[0]) }},
		{"seq already folded", "out of order", func(st *nodeState) { st.pending[0].seq = 12 }},
		{"seq past head", "out of order", func(st *nodeState) { st.pending[0].seq = st.seq + 1 }},
		{"resource index", "out of range", func(st *nodeState) {
			st.pending[0].alarms = append(st.pending[0].alarms, nodeAlarm{res: len(core.DetectorResources), component: "leaky"})
		}},
		{"non-finite score", "non-finite", func(st *nodeState) { st.pending[0].alarms[0].score = math.NaN() }},
		{"component order", "canonical order", func(st *nodeState) {
			al := st.pending[0].alarms[0]
			al.component, al.score = "zzz", al.score+1
			st.pending[0].alarms = append(st.pending[0].alarms, al)
		}},
		{"inactive holder", "inactive", func(st *nodeState) { st.active.Store(false) }},
	} {
		b := fresh()
		if err := b.Restore(pendingSnap); err != nil {
			t.Fatalf("%s: Restore of the intact snapshot: %v", tc.name, err)
		}
		st := b.byName["node1"]
		if len(st.pending) != 1 || len(st.pending[0].alarms) == 0 {
			t.Fatalf("node1 pending = %+v, want one alarming round", st.pending)
		}
		tc.corrupt(st)
		if err := fresh().Restore(b.Snapshot()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAggregatorRestoreRejectsUnreachableCounters feeds a snapshot hold
// counters no fold reaches: a churn hold above churnHold, which would
// hold cluster promotion down for that many epochs after the restore,
// and more shift epochs than folded epochs.
func TestAggregatorRestoreRejectsUnreachableCounters(t *testing.T) {
	nodes := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node1": 4096, "node2": 4096, "node3": 4096}
	// snapWith snapshots a leaking plane with the given churn hold and
	// shift epochs set shiftPast epochs past the fold watermark.
	snapWith := func(churn int, shiftPast int64) []byte {
		a := New(Config{Detect: testDetect()})
		a.Expect(nodes...)
		feedSnap(a, nodes, leaks, 1, 12)
		a.foldMu.Lock()
		a.churnLeft, a.shiftEp = churn, a.epochFolded+shiftPast
		a.foldMu.Unlock()
		return a.Snapshot()
	}
	for _, tc := range []struct {
		name      string
		churn     int
		shiftPast int64
	}{
		{"churn hold beyond churnHold", 1_000_000, 0},
		{"churn hold one past churnHold", churnHold + 1, 0},
		{"more shift epochs than epochs", 0, 1},
	} {
		if err := New(Config{Detect: testDetect()}).Restore(snapWith(tc.churn, tc.shiftPast)); err == nil {
			t.Errorf("%s: snapshot accepted", tc.name)
		}
	}
	if err := New(Config{Detect: testDetect()}).Restore(snapWith(churnHold, 0)); err != nil {
		t.Fatalf("counters in reach refused: %v", err)
	}
}

// TestAggregatorPendingRoundsBoundedAndReleased pins the pending records'
// lifetime: a node ahead of the fold holds one record per unfolded round,
// and the fold, ResetNode and Leave release them, so a rejoin starts from
// its new round alone.
func TestAggregatorPendingRoundsBoundedAndReleased(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	nodes := []string{"node1", "node2"}
	a.Expect(nodes...)
	feedSnap(a, nodes, map[string]int64{"node1": 2048}, 1, 10)
	held := func(node string) int {
		st := a.byName[node]
		st.lane.mu.Lock()
		defer st.lane.mu.Unlock()
		return len(st.pending)
	}
	ingest := func(node string, seq int64) {
		at := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(seq) * 30 * time.Second)
		a.Ingest(syntheticRound(node, seq, at, 0))
	}
	expect := func(step string, epoch int64, n1, n2 int) {
		t.Helper()
		if got := a.Epoch(); got != epoch {
			t.Fatalf("%s: epoch %d, want %d", step, got, epoch)
		}
		if g1, g2 := held("node1"), held("node2"); g1 != n1 || g2 != n2 {
			t.Fatalf("%s: pending node1=%d node2=%d, want %d and %d", step, g1, g2, n1, n2)
		}
	}
	expect("in lockstep", 10, 0, 0)

	ahead := int64(a.cfg.StaleEpochs - 1)
	for s := int64(11); s <= 10+ahead; s++ {
		ingest("node1", s)
	}
	expect("node1 ahead", 10, int(ahead), 0)
	for s := int64(11); s <= 10+ahead; s++ {
		ingest("node2", s)
	}
	head := 10 + ahead
	expect("node2 caught up", head, 0, 0)

	ingest("node1", head+1)
	a.ResetNode("node1")
	expect("ResetNode", head, 0, 0)
	ingest("node2", head+1)
	expect("fold without node1's round", head+1, 0, 0)

	ingest("node1", head+2)
	a.Leave("node1")
	expect("Leave", head+1, 0, 0)
	ingest("node1", head+3) // rejoins aligned to epoch head+2
	expect("rejoin", head+1, 1, 0)
	ingest("node2", head+2)
	expect("fold after rejoin", head+2, 0, 0)
}

// TestAggregatorSnapshotGolden pins the on-disk format: if this breaks,
// the format changed and aggSnapVersion must be bumped.
func TestAggregatorSnapshotGolden(t *testing.T) {
	a := New(Config{Detect: testDetect()})
	a.Expect("n1")
	feedSnap(a, []string{"n1"}, map[string]int64{"n1": 512}, 1, 3)
	got := hex.EncodeToString(a.Snapshot())
	want := strings.Join(aggSnapshotGoldenHex, "")
	if got != want {
		t.Fatalf("snapshot format changed — bump aggSnapVersion and re-pin.\ngot:\n%s", chunk80(got))
	}
}

// chunk80 renders a hex string in 80-char lines for re-pinning.
func chunk80(s string) string {
	var b strings.Builder
	for len(s) > 80 {
		fmt.Fprintf(&b, "\t%q,\n", s[:80])
		s = s[80:]
	}
	fmt.Fprintf(&b, "\t%q,\n", s)
	return b.String()
}

var aggSnapshotGoldenHex = []string{
	"4147534e0405066d656d6f7279036370750774687265616473076c6174656e63790768616e646c65",
	"7306060000020101026e31000000000000f03f0000000000000000333333333333c33f0000060001",
	"80b08dabf9b4cd84238090c8afb8b8cd842300000000000001026e31010601008090c8afb8b8cd84",
	"23000000000000c0824002056c65616b79d017026f6bd00f02056c65616b79d02701d80434333333",
	"3333d33f0400000000000000000000026f6bd00f01d804343333333333d33f040000000000000000",
	"000000000000000305066d656d6f72791400000000000000000402000363707514fca9f1d24d6240",
	"3f0402010774687265616473140000000000000000040200076c6174656e637914fca9f1d24d6240",
	"3f0402010768616e646c65731400000000000000000402000600020102056c65616b790000000000",
	"00e03f026f6b000000000000e03f0000000000000000333333333333c33f00000600000000000000",
	"0000000180e0aaedd8b6cd842304020000000000000000000080b09dc2df01000000000000000000",
	"000000000000f03f0180e0aaedd8b6cd842304020000000000000000f03f80b09dc2df0100000000",
	"0000f03f000000000000000000000000000000000000000000000000000000000000000000000000",
	"00000000000002056c65616b79010000000000c07240010000000000d0a34000000bd7a3703d0ad7",
	"3f80e0aaedd8b6cd8423040200000000000000a09f4080b09dc2df010000000000d0a34001343333",
	"333333d33f00000bd7a3703d0ac73f80e0aaedd8b6cd842304020000fca9f1d24d62503f80b09dc2",
	"df01fda9f1d24d62503f0100000000000000400000000000000000000080e0aaedd8b6cd84230402",
	"0000000000000000004080b09dc2df01000000000000004001000000000000000000000000000000",
	"00000080e0aaedd8b6cd842304020000000000000000000080b09dc2df0100000000000000000100",
	"000000000000000000000000000000000080e0aaedd8b6cd842304020000000000000000000080b0",
	"9dc2df010000000000000000026f6b010000000000c07240010000000000408f4000000000000000",
	"00000080e0aaedd8b6cd8423040200000000000000408f4080b09dc2df010000000000408f400134",
	"3333333333d33f00000bd7a3703d0ac73f80e0aaedd8b6cd842304020000fca9f1d24d62503f80b0",
	"9dc2df01fda9f1d24d62503f0100000000000000400000000000000000000080e0aaedd8b6cd8423",
	"04020000000000000000004080b09dc2df0100000000000000400100000000000000000000000000",
	"000000000080e0aaedd8b6cd842304020000000000000000000080b09dc2df010000000000000000",
	"0100000000000000000000000000000000000080e0aaedd8b6cd8423040200000000000000000000",
	"80b09dc2df01000000000000000000",
}

// aggSnapshotV3Hex is TestAggregatorSnapshotGolden's aggregator in the v3
// format, which embedded one detector monitor per resource per node.
var aggSnapshotV3Hex = []string{
	"4147534e0305066d656d6f7279036370750774687265616473076c6174656e63790768616e646c65",
	"7306060000020101026e31000000000000f03f0000000000000000333333333333c33f0000060001",
	"80b08dabf9b4cd84238090c8afb8b8cd842300000000000001026e31010601008090c8afb8b8cd84",
	"23000000000000c0824002056c65616b79d017026f6bd00f02056c65616b79d02701d80434333333",
	"3333d33f0400000000000000000000026f6bd00f01d804343333333333d33f040000000000000000",
	"0000000000000002066d656d6f7279140000000000000000040200060000020102056c65616b7900",
	"0000000000e03f026f6b000000000000e03f0000000000000000333333333333c33f000006000101",
	"147b14ae47e17a843f80e0aaedd8b6cd842304020000000000000000000000000000000000000000",
	"00003e40000000000000000000000000000000000102056c65616b7901147b14ae47e17a843f80e0",
	"aaedd8b6cd8423040200000000000000000000000000a09f400000000000003e400000000000d0a3",
	"400000000000d0a3400000000000c072400100000bd7a3703d0ad73f026f6b01147b14ae47e17a84",
	"3f80e0aaedd8b6cd8423040200000000000000000000000000408f400000000000003e4000000000",
	"00408f400000000000408f400000000000c072400100000000000000000000020363707514fca9f1",
	"d24d62403f040201060000020102056c65616b79000000000000e03f026f6b000000000000e03f00",
	"00000000000000333333333333c33f000006000101147b14ae47e17a843f80e0aaedd8b6cd842304",
	"020000000000000000000000000000f03f0000000000003e40000000000000f03f000000000000f0",
	"3f0102056c65616b7901147b14ae47e17a843f80e0aaedd8b6cd842304020000000000000000fca9",
	"f1d24d62503f0000000000003e40fda9f1d24d62503f343333333333d33f0000000000c072400100",
	"000bd7a3703d0ac73f026f6b01147b14ae47e17a843f80e0aaedd8b6cd8423040200000000000000",
	"00fca9f1d24d62503f0000000000003e40fda9f1d24d62503f343333333333d33f0000000000c072",
	"400100000bd7a3703d0ac73f02077468726561647314000000000000000004020006000002010205",
	"6c65616b79000000000000e03f026f6b000000000000e03f0000000000000000333333333333c33f",
	"000006000101147b14ae47e17a843f00000000000000000000000002056c65616b7901147b14ae47",
	"e17a843f80e0aaedd8b6cd84230402000000000000000000000000000000400000000000003e4000",
	"0000000000004000000000000000400000000000c072400100000000000000000000026f6b01147b",
	"14ae47e17a843f80e0aaedd8b6cd8423040200000000000000000000000000000040000000000000",
	"3e40000000000000004000000000000000400000000000c07240010000000000000000000002076c",
	"6174656e637914fca9f1d24d62403f040201060000020102056c65616b79000000000000e03f026f",
	"6b000000000000e03f0000000000000000333333333333c33f000006000101147b14ae47e17a843f",
	"00000000000000000000000002056c65616b7901147b14ae47e17a843f80e0aaedd8b6cd84230402",
	"000000000000000000000000000000000000000000003e4000000000000000000000000000000000",
	"0000000000c072400100000000000000000000026f6b01147b14ae47e17a843f80e0aaedd8b6cd84",
	"230402000000000000000000000000000000000000000000003e4000000000000000000000000000",
	"0000000000000000c072400100000000000000000000020768616e646c6573140000000000000000",
	"040200060000020102056c65616b79000000000000e03f026f6b000000000000e03f000000000000",
	"0000333333333333c33f000006000101147b14ae47e17a843f00000000000000000000000002056c",
	"65616b7901147b14ae47e17a843f80e0aaedd8b6cd84230402000000000000000000000000000000",
	"000000000000003e40000000000000000000000000000000000000000000c0724001000000000000",
	"00000000026f6b01147b14ae47e17a843f80e0aaedd8b6cd84230402000000000000000000000000",
	"000000000000000000003e40000000000000000000000000000000000000000000c0724001000000",
	"0000000000000000",
}

// TestAggregatorRestoreRejectsV3 feeds a v3 snapshot to the v4 decoder:
// it must be refused by its version byte, never misparsed.
func TestAggregatorRestoreRejectsV3(t *testing.T) {
	data, err := hex.DecodeString(strings.Join(aggSnapshotV3Hex, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := New(Config{Detect: testDetect()}).Restore(data); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("v3 aggregator snapshot: err = %v, want binc.ErrVersion", err)
	}
}

// emptyAggregatorSnapshotV2 is an aggregator with no nodes in the v2
// format, whose node-mix guard still carried its tuning.
const emptyAggregatorSnapshotV2 = "4147534e0205066d656d6f7279036370750774687265616473076c6174656e63790768616e646c65" +
	"730000000001333333333333c33f059a9999999999c93f000000000000f83f000000000000000000" +
	"0000000000000000000000000000000000000000"

// TestAggregatorRestoreRejectsV2 feeds a v2 snapshot to the v4 decoder:
// it must be refused by its version byte, never misparsed.
func TestAggregatorRestoreRejectsV2(t *testing.T) {
	data, err := hex.DecodeString(emptyAggregatorSnapshotV2)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(Config{}).Restore(data); !errors.Is(err, binc.ErrVersion) {
		t.Fatalf("v2 aggregator snapshot: err = %v, want binc.ErrVersion", err)
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

// TestAggregatorSnapshotFuzzSeedOutcomes pins the restore outcome of
// every committed FuzzAggregatorSnapshot seed: where a rejected one
// stops, and that an accepted one re-encodes byte-identically. A decoder
// that read a field or ran a check at another point of the sequence
// would stop elsewhere.
func TestAggregatorSnapshotFuzzSeedOutcomes(t *testing.T) {
	for _, tc := range []struct{ seed, want string }{
		{"03eba60b36a437c3", "binc: non-minimal uvarint at offset 98"},
		{"seed-pending-alarm", ""},
	} {
		data := readFuzzSeed(t, "testdata/fuzz/FuzzAggregatorSnapshot/"+tc.seed)
		a := New(Config{Detect: testDetect()})
		err := a.Restore(data)
		switch {
		case tc.want != "":
			if err == nil || err.Error() != tc.want {
				t.Errorf("seed %s: err = %v, want %q", tc.seed, err, tc.want)
			}
		case err != nil:
			t.Errorf("seed %s: %v", tc.seed, err)
		case !bytes.Equal(a.Snapshot(), data):
			t.Errorf("seed %s: restored aggregator re-encodes differently", tc.seed)
		}
	}
}

func FuzzAggregatorSnapshot(f *testing.F) {
	seed := New(Config{Detect: testDetect()})
	seed.Expect("node1", "node2")
	feedSnap(seed, []string{"node1", "node2"}, map[string]int64{"node1": 2048}, 1, 6)
	f.Add(seed.Snapshot())
	f.Add(New(Config{Detect: testDetect()}).Snapshot())

	f.Fuzz(func(t *testing.T, data []byte) {
		a := New(Config{Detect: testDetect()})
		if err := a.Restore(data); err != nil {
			return
		}
		// Accepted snapshots must be canonical and leave a servable plane.
		if !bytes.Equal(a.Snapshot(), data) {
			t.Fatal("accepted snapshot is not canonical")
		}
		t0 := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
		for _, ns := range a.Nodes() {
			for i := int64(1); i <= 2; i++ {
				a.Ingest(syntheticRound(ns.Node, ns.Rounds+i, t0.Add(time.Duration(i)*30*time.Second), 0))
			}
		}
		a.Snapshot()
	})
}
