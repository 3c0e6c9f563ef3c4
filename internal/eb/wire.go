package eb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/binc"
	"repro/internal/sim"
)

// The multi-process load tier: K DriverNode processes each drive their
// modulo slice of the session population (ShardedConfig.DriverIndex /
// DriverCount) and a LoadCoordinator paces them through virtual time and
// merges their telemetry. The protocol is conservative-lookahead window
// granting, the wire-level analogue of ShardGroup's barrier:
//
//	node  → coord   magic, HELLO(index, count)
//	coord → node    magic, then per window GRANT(seq, endNs)
//	node  → coord   BATCH(seq, Δcompleted, Δfailed, Δdropped, Δchecksum,
//	                      touched per-second buckets as (sec, Δcount))
//	coord → node    FIN after the last window
//
// A node never runs past its latest grant, and the coordinator grants
// window W+1 only after every node's BATCH for W arrived, so no process's
// virtual clock leads another's by more than one window. All telemetry
// rides as varint deltas in the spirit of the cluster binary codec:
// steady-state batches are a handful of bytes. Because session behaviour
// is a pure function of (seed, id, schedule) and ownership is id mod K, the
// merged counters, WIPS buckets and completion checksum are identical for
// any K — TestDriverWireKParity pins that against the in-process driver.

// loadWireMagic opens both directions of a driver wire stream: three
// identifying bytes and a version byte, after the cluster codec's
// convention. Bump the version on any incompatible change.
var loadWireMagic = [4]byte{'E', 'B', 'L', 1}

// Message type bytes.
const (
	loadMsgHello = 'H'
	loadMsgGrant = 'G'
	loadMsgBatch = 'B'
	loadMsgFin   = 'F'
)

// uvarint-write scratch; writers are single-goroutine so a local is fine.
func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	_, err := w.Write(binc.AppendUvarint(buf[:0], v))
	return err
}

// DriverNode is one process's slice of the load fleet: a ShardedDriver
// plus the wire endpoint that lets a LoadCoordinator pace it. The node's
// shard count is its own affair (per-core sharding inside the process);
// the coordinator only sees windows and telemetry.
type DriverNode struct {
	driver *ShardedDriver

	// Shadow of what the coordinator has been told, for delta batches.
	sentCompleted uint64
	sentFailed    uint64
	sentDropped   uint64
	sentChecksum  uint64
	shadow        []uint32
	prevEndNs     int64
}

// NodeForDriver arms an assembled driver with the fleet's schedule (the
// same one on every node, ending when the coordinator's run does) and
// wraps it as a wire node. The driver's DriverIndex / DriverCount place it
// in the fleet.
func NodeForDriver(d *ShardedDriver, phases []Phase) (*DriverNode, error) {
	if _, err := d.Start(phases); err != nil {
		return nil, err
	}
	return &DriverNode{driver: d}, nil
}

// Serve runs the node's side of the protocol over an established
// connection until the coordinator sends FIN (returns nil) or the stream
// breaks (returns the error). It drives virtual time strictly as granted.
func (n *DriverNode) Serve(conn net.Conn) error {
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	// Introduce ourselves first; the coordinator speaks only after it has
	// heard from every node (synchronous pipes deadlock if both ends open
	// with a write).
	if _, err := bw.Write(loadWireMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(loadMsgHello); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(n.driver.cfg.DriverIndex)); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(n.driver.cfg.DriverCount)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if magic != loadWireMagic {
		return fmt.Errorf("eb: not a load-coordinator stream (magic %x)", magic)
	}

	n.shadow = make([]uint32, len(n.driver.shards[0].buckets))

	for {
		msg, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch msg {
		case loadMsgFin:
			return nil
		case loadMsgGrant:
			seq, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			endNs, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			n.driver.AdvanceTo(sim.Epoch.Add(time.Duration(endNs)))
			if err := n.sendBatch(bw, seq, int64(endNs)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("eb: unexpected message %q from coordinator", msg)
		}
	}
}

// sendBatch ships the telemetry accumulated since the previous grant as
// varint deltas. Only seconds the window could have touched are scanned.
func (n *DriverNode) sendBatch(bw *bufio.Writer, seq uint64, endNs int64) error {
	d := n.driver
	completed, failed, dropped, checksum := d.Completed(), d.Failed(), d.Dropped(), d.Checksum()

	if err := bw.WriteByte(loadMsgBatch); err != nil {
		return err
	}
	for _, v := range []uint64{
		seq,
		completed - n.sentCompleted,
		failed - n.sentFailed,
		dropped - n.sentDropped,
		checksum - n.sentChecksum, // wrapping delta; the sum reassembles mod 2^64
	} {
		if err := writeUvarint(bw, v); err != nil {
			return err
		}
	}
	n.sentCompleted, n.sentFailed, n.sentDropped, n.sentChecksum = completed, failed, dropped, checksum

	// Completions since the last batch lie in (prevEnd, end]; diff those
	// seconds against the shadow.
	lo := int(n.prevEndNs / int64(time.Second))
	hi := int(endNs / int64(time.Second))
	if hi >= len(n.shadow) {
		hi = len(n.shadow) - 1
	}
	touched := 0
	for sec := lo; sec <= hi; sec++ {
		if n.bucketAt(sec) != n.shadow[sec] {
			touched++
		}
	}
	if err := writeUvarint(bw, uint64(touched)); err != nil {
		return err
	}
	for sec := lo; sec <= hi; sec++ {
		cur := n.bucketAt(sec)
		if cur == n.shadow[sec] {
			continue
		}
		if err := writeUvarint(bw, uint64(sec)); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(cur-n.shadow[sec])); err != nil {
			return err
		}
		n.shadow[sec] = cur
	}
	n.prevEndNs = endNs
	return bw.Flush()
}

// bucketAt sums second sec across the node's shards.
func (n *DriverNode) bucketAt(sec int) uint32 {
	var v uint32
	for _, sh := range n.driver.shards {
		v += sh.buckets[sec]
	}
	return v
}

// LoadCoordinator paces a fleet of DriverNodes through a run and merges
// their telemetry. It owns no sessions itself — it is the experiment-side
// process that turns K driver processes into one load figure.
type LoadCoordinator struct {
	duration time.Duration
	window   time.Duration

	completed uint64
	failed    uint64
	dropped   uint64
	checksum  uint64
	buckets   []uint32
}

// NewLoadCoordinator plans a run of the given duration paced in lookahead
// windows (default 100ms when window <= 0).
func NewLoadCoordinator(duration, window time.Duration) *LoadCoordinator {
	if duration <= 0 {
		panic("eb: LoadCoordinator needs a positive duration")
	}
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	return &LoadCoordinator{
		duration: duration,
		window:   window,
		buckets:  make([]uint32, int(duration/time.Second)+2),
	}
}

// Completed returns the fleet's merged completion count.
func (c *LoadCoordinator) Completed() uint64 { return c.completed }

// Failed returns the fleet's merged failure count.
func (c *LoadCoordinator) Failed() uint64 { return c.failed }

// Dropped returns the fleet's merged shed-arrival count.
func (c *LoadCoordinator) Dropped() uint64 { return c.dropped }

// Checksum returns the fleet's merged completion fingerprint — directly
// comparable with ShardedDriver.Checksum of a single-process run.
func (c *LoadCoordinator) Checksum() uint64 { return c.checksum }

// WIPSBuckets returns the fleet's merged per-second completion counts.
func (c *LoadCoordinator) WIPSBuckets() []uint32 { return c.buckets }

// Run executes the whole protocol over established connections, one per
// node, and blocks until the run completes. Connections are left open;
// close them after Run returns. Nodes may be in-process goroutines
// (net.Pipe) or remote processes (TCP/unix sockets) — the coordinator
// cannot tell.
func (c *LoadCoordinator) Run(conns []net.Conn) error {
	if len(conns) == 0 {
		return errors.New("eb: coordinator with no driver nodes")
	}
	type peer struct {
		br *bufio.Reader
		bw *bufio.Writer
	}
	peers := make([]peer, len(conns))
	seen := make([]bool, len(conns))
	for i, conn := range conns {
		peers[i] = peer{br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
		var magic [4]byte
		if _, err := io.ReadFull(peers[i].br, magic[:]); err != nil {
			return err
		}
		if magic != loadWireMagic {
			return fmt.Errorf("eb: conn %d is not a driver node (magic %x)", i, magic)
		}
		msg, err := peers[i].br.ReadByte()
		if err != nil {
			return err
		}
		if msg != loadMsgHello {
			return fmt.Errorf("eb: conn %d opened with %q, want HELLO", i, msg)
		}
		index, err := binary.ReadUvarint(peers[i].br)
		if err != nil {
			return err
		}
		count, err := binary.ReadUvarint(peers[i].br)
		if err != nil {
			return err
		}
		if count != uint64(len(conns)) {
			return fmt.Errorf("eb: node %d believes in %d drivers, coordinator has %d", index, count, len(conns))
		}
		if index >= uint64(len(conns)) || seen[index] {
			return fmt.Errorf("eb: bad or duplicate driver index %d", index)
		}
		seen[index] = true
	}
	for i := range peers {
		if _, err := peers[i].bw.Write(loadWireMagic[:]); err != nil {
			return err
		}
		if err := peers[i].bw.Flush(); err != nil {
			return err
		}
	}

	durNs := c.duration.Nanoseconds()
	winNs := c.window.Nanoseconds()
	var seq uint64
	for startNs := int64(0); startNs < durNs; seq++ {
		endNs := startNs + winNs
		if endNs > durNs {
			endNs = durNs
		}
		// Grant the window to every node first — they all advance
		// concurrently — then collect every batch before the next grant:
		// the cross-process barrier.
		for i := range peers {
			if err := peers[i].bw.WriteByte(loadMsgGrant); err != nil {
				return err
			}
			if err := writeUvarint(peers[i].bw, seq); err != nil {
				return err
			}
			if err := writeUvarint(peers[i].bw, uint64(endNs)); err != nil {
				return err
			}
			if err := peers[i].bw.Flush(); err != nil {
				return err
			}
		}
		for i := range peers {
			if err := c.readBatch(peers[i].br, seq); err != nil {
				return fmt.Errorf("eb: node on conn %d: %w", i, err)
			}
		}
		startNs = endNs
	}

	for i := range peers {
		if err := peers[i].bw.WriteByte(loadMsgFin); err != nil {
			return err
		}
		if err := peers[i].bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// readBatch consumes one BATCH frame and folds it into the merged
// telemetry.
func (c *LoadCoordinator) readBatch(br *bufio.Reader, wantSeq uint64) error {
	msg, err := br.ReadByte()
	if err != nil {
		return err
	}
	if msg != loadMsgBatch {
		return fmt.Errorf("unexpected message %q, want BATCH", msg)
	}
	var fields [5]uint64
	for i := range fields {
		if fields[i], err = binary.ReadUvarint(br); err != nil {
			return err
		}
	}
	if fields[0] != wantSeq {
		return fmt.Errorf("batch for window %d, want %d", fields[0], wantSeq)
	}
	c.completed += fields[1]
	c.failed += fields[2]
	c.dropped += fields[3]
	c.checksum += fields[4]
	touched, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if touched > uint64(len(c.buckets)) {
		return fmt.Errorf("batch touches %d seconds, run has %d", touched, len(c.buckets))
	}
	for j := uint64(0); j < touched; j++ {
		sec, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if sec >= uint64(len(c.buckets)) {
			return fmt.Errorf("bucket second %d out of range", sec)
		}
		c.buckets[sec] += uint32(delta)
	}
	return nil
}
