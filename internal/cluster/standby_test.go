package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"
)

// TestSnapshotFrameRoundTrip pins the SNAPSHOT frame layout and its
// corruption guards.
func TestSnapshotFrameRoundTrip(t *testing.T) {
	in := StandbySnapshot{Generation: 7, Aggregator: []byte("agg-state"), Controller: []byte("ctl")}
	frame := AppendSnapshotFrame(nil, in)
	// Strip the length prefix the read loop consumes.
	n, w := binary.Uvarint(frame)
	if w <= 0 || n != uint64(len(frame)-w) {
		t.Fatalf("frame length prefix: n=%d width=%d", n, w)
	}
	payload := frame[w:]
	out, err := DecodeSnapshotFrame(payload)
	if err != nil {
		t.Fatalf("DecodeSnapshotFrame: %v", err)
	}
	if out.Generation != 7 || string(out.Aggregator) != "agg-state" || string(out.Controller) != "ctl" {
		t.Fatalf("round trip = %+v", out)
	}

	// Controller-less snapshots round-trip with a zero-length blob.
	frame = AppendSnapshotFrame(nil, StandbySnapshot{Generation: 1, Aggregator: []byte("a")})
	_, w = binary.Uvarint(frame)
	out, err = DecodeSnapshotFrame(frame[w:])
	if err != nil || len(out.Controller) != 0 {
		t.Fatalf("controller-less round trip: %+v err=%v", out, err)
	}

	// Corruption: wrong type, truncations, trailing bytes.
	if _, err := DecodeSnapshotFrame([]byte{frameBatch, 1}); err == nil {
		t.Fatal("wrong frame type accepted")
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, err := DecodeSnapshotFrame(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeSnapshotFrame(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// staticSnapshotter stands in for the rejuvenation controller (cluster
// cannot import rejuv); the real pairing is exercised by the experiment
// scenarios.
type staticSnapshotter struct{ blob []byte }

func (s staticSnapshotter) AppendSnapshot(dst []byte) []byte { return append(dst, s.blob...) }

// TestStandbyShipAndPromote is the failover tentpole at codec level: the
// active aggregator ships a snapshot every epoch; killing it and
// promoting a fresh aggregator from the receiver's latest generation
// yields a plane whose subsequent state is byte-identical to the
// uninterrupted reference.
func TestStandbyShipAndPromote(t *testing.T) {
	cfg := Config{Detect: testDetect(), IngestLanes: 2}
	nodes := []string{"node1", "node2", "node3"}
	leaks := map[string]int64{"node2": 2048}
	const n, m = 12, 10

	ref := New(cfg)
	ref.Expect(nodes...)
	feedSnap(ref, nodes, leaks, 1, n+m)

	active := New(cfg)
	active.Expect(nodes...)
	ctlBlob := []byte("controller-snapshot-stand-in")
	shipConn, recvConn := net.Pipe()
	recv := NewStandbyReceiver()
	served := make(chan error, 1)
	go func() { served <- recv.Serve(recvConn) }()
	shipper := NewStandbyShipper(shipConn, active, staticSnapshotter{ctlBlob}, 1)
	active.SubscribeEpochs(shipper.ObserveEpoch)

	feedSnap(active, nodes, leaks, 1, n)
	waitFor(t, func() bool { return recv.Received() >= n })
	if got := shipper.Shipped(); got < n {
		t.Fatalf("shipped %d generations, want >= %d", got, n)
	}

	// The active dies mid-epoch: its connection drops with it.
	_ = shipper.Close()
	if err := <-served; err != nil {
		t.Fatalf("receiver serve: %v", err)
	}

	latest, ok := recv.Latest()
	if !ok {
		t.Fatal("no snapshot retained at promotion time")
	}
	if latest.Generation != n {
		t.Fatalf("latest generation = %d, want %d", latest.Generation, n)
	}
	if !bytes.Equal(latest.Controller, ctlBlob) {
		t.Fatal("controller blob did not ride the frame")
	}

	promoted := New(cfg)
	if err := promoted.Restore(latest.Aggregator); err != nil {
		t.Fatalf("promote: %v", err)
	}
	feedSnap(promoted, nodes, leaks, n+1, n+m)
	if !bytes.Equal(promoted.Snapshot(), ref.Snapshot()) {
		t.Fatal("promoted plane diverged from the uninterrupted reference")
	}
}

// recordConn is a net.Conn that keeps every byte written to it.
type recordConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// TestShipWritesAppendSnapshotFrame pins AppendSnapshotFrame as the one
// SNAPSHOT encoder: Ship's bytes are the stream header (first frame
// only) followed by exactly what AppendSnapshotFrame builds from the two
// blobs, and the encoder allocates nothing into a pre-sized buffer.
func TestShipWritesAppendSnapshotFrame(t *testing.T) {
	active := New(Config{Detect: testDetect()})
	active.Expect("node1")
	feedSnap(active, []string{"node1"}, nil, 1, 3)
	ctl := staticSnapshotter{[]byte("controller-state")}
	conn := &recordConn{}
	shipper := NewStandbyShipper(conn, active, ctl, 1)

	for gen := uint64(1); gen <= 2; gen++ {
		conn.buf.Reset()
		if err := shipper.Ship(); err != nil {
			t.Fatalf("ship %d: %v", gen, err)
		}
		var want []byte
		if gen == 1 {
			want = append(want, wireMagic[:]...)
		}
		want = AppendSnapshotFrame(want, StandbySnapshot{
			Generation: gen,
			Aggregator: active.AppendSnapshot(nil),
			Controller: ctl.AppendSnapshot(nil),
		})
		if !bytes.Equal(conn.buf.Bytes(), want) {
			t.Fatalf("ship %d wrote %d bytes, want the %d-byte AppendSnapshotFrame encoding", gen, conn.buf.Len(), len(want))
		}
	}

	snap := StandbySnapshot{Generation: 1 << 40, Aggregator: active.AppendSnapshot(nil), Controller: ctl.blob}
	dst := make([]byte, 0, 2*len(snap.Aggregator)+len(snap.Controller)+64)
	if allocs := testing.AllocsPerRun(100, func() { dst = AppendSnapshotFrame(dst[:0], snap) }); allocs != 0 {
		t.Fatalf("AppendSnapshotFrame into a pre-sized buffer: %v allocs, want 0", allocs)
	}
}

// TestStandbyShipperEveryEpochs pins the shipping cadence: every=3 ships
// on epochs 3, 6, 9, ...
func TestStandbyShipperEveryEpochs(t *testing.T) {
	cfg := Config{Detect: testDetect()}
	active := New(cfg)
	active.Expect("node1")
	shipConn, recvConn := net.Pipe()
	recv := NewStandbyReceiver()
	go func() { _ = recv.Serve(recvConn) }()
	shipper := NewStandbyShipper(shipConn, active, nil, 3)
	active.SubscribeEpochs(shipper.ObserveEpoch)

	feedSnap(active, []string{"node1"}, nil, 1, 10)
	waitFor(t, func() bool { return recv.Received() >= 3 })
	if got := shipper.Shipped(); got != 3 {
		t.Fatalf("shipped = %d after 10 epochs at every=3, want 3", got)
	}
	_ = shipper.Close()
}

// TestStandbyShipperFailStop pins the broken latch: a dead standby
// connection fails the ship, counts the error, and never wedges the
// epoch path.
func TestStandbyShipperFailStop(t *testing.T) {
	active := New(Config{Detect: testDetect()})
	active.Expect("node1")
	shipConn, recvConn := net.Pipe()
	_ = recvConn.Close() // standby is gone before the first ship
	shipper := NewStandbyShipper(shipConn, active, nil, 1)
	active.SubscribeEpochs(shipper.ObserveEpoch)

	feedSnap(active, []string{"node1"}, nil, 1, 3)
	if shipper.Errors() < 3 {
		t.Fatalf("errors = %d, want one per attempted ship", shipper.Errors())
	}
	if shipper.Shipped() != 0 {
		t.Fatalf("shipped = %d into a closed pipe", shipper.Shipped())
	}
	if err := shipper.Ship(); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("ship after latch: %v, want broken error", err)
	}
}

// TestStandbyReceiverRejectsRegression pins that a stale or duplicate
// generation drops the stream — an out-of-order snapshot must never
// silently become "latest".
func TestStandbyReceiverRejectsRegression(t *testing.T) {
	var stream []byte
	stream = append(stream, wireMagic[:]...)
	stream = AppendSnapshotFrame(stream, StandbySnapshot{Generation: 2, Aggregator: []byte("x")})
	stream = AppendSnapshotFrame(stream, StandbySnapshot{Generation: 2, Aggregator: []byte("y")})

	client, server := net.Pipe()
	errs := make(chan error, 1)
	recv := NewStandbyReceiver()
	go func() { errs <- recv.Serve(server) }()
	go func() { _, _ = client.Write(stream) }()
	select {
	case err := <-errs:
		if err == nil || !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("serve = %v, want generation-regression error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not reject the regressing generation")
	}
	latest, ok := recv.Latest()
	if !ok || string(latest.Aggregator) != "x" {
		t.Fatalf("latest = %+v ok=%v, want the first generation retained", latest, ok)
	}
	_ = client.Close()
}

// TestStandbyReceiverRejectsWrongMagic pins the version gate.
func TestStandbyReceiverRejectsWrongMagic(t *testing.T) {
	client, server := net.Pipe()
	errs := make(chan error, 1)
	go func() { errs <- NewStandbyReceiver().Serve(server) }()
	go func() { _, _ = client.Write([]byte{'A', 'G', 'M', 5, 0}) }()
	select {
	case err := <-errs:
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("serve = %v, want magic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver accepted a v5 stream")
	}
	_ = client.Close()
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
