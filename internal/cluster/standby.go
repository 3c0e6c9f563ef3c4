// Warm-standby failover: surviving the monitor's own death.
//
// The aggregator is the cluster's single point of memory — per-node
// detector banks, epoch watermarks, rejuvenation state machines. The
// paper's argument for lightweight always-on instrumentation cuts both
// ways: the monitor must also survive its own failures, or the first
// aggregator crash erases exactly the slow-trend history the approach
// exists to accumulate. This file closes that gap with v6's SNAPSHOT
// frame: an active aggregator periodically encodes its durable state
// (snapshot.go) — and its rejuvenation controller's (internal/rejuv) —
// and ships both, atomically in one frame, to a warm standby. When the
// active dies, the standby restores the latest generation into a fresh
// plane and takes over mid-epoch; the controller then reconciles any
// actuation the dead aggregator left in flight (rejuv.ReconcileOrphans).
//
// The shipper rides the epoch-delivery goroutine (SubscribeEpochs): the
// fold stage is where state changes, so snapshotting there captures a
// consistent post-fold view, and the ingest hot path never sees a
// snapshot. Shipping is fail-stop like every other wire here: a failed
// write latches the shipper broken, and the operator (or the experiment
// harness) attaches a fresh one — snapshots are idempotent full states,
// so a re-attached shipper needs no catch-up protocol.

package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/binc"
)

// StandbySnapshot is one shipped durable-state generation: the
// aggregator's snapshot and (optionally, length zero when absent) its
// rejuvenation controller's, paired atomically so the standby never
// promotes a torn aggregator/controller combination.
type StandbySnapshot struct {
	Generation uint64 // shipper-assigned, strictly increasing per stream
	Aggregator []byte
	Controller []byte
}

// code is the SNAPSHOT frame's field list, after its type byte: the
// generation and the two length-prefixed blobs. Decoded blobs alias the
// payload.
func (s *StandbySnapshot) code(c *binc.Codec) {
	c.Uvarint(&s.Generation)
	c.Bytes(&s.Aggregator)
	c.Bytes(&s.Controller)
}

// AppendSnapshotFrame appends one length-prefixed SNAPSHOT frame to dst,
// built in place with no temporary buffer.
func AppendSnapshotFrame(dst []byte, s StandbySnapshot) []byte {
	var c binc.Codec
	c.ResetEncoder(append(dst, frameSnapshot))
	s.code(&c)
	return prefixLength(c.Buffer(), len(dst))
}

// DecodeSnapshotFrame decodes one SNAPSHOT frame payload (without its
// length prefix, including the leading frame-type byte). The returned
// blobs alias payload; callers that retain them past the read loop's
// buffer reuse must copy.
func DecodeSnapshotFrame(payload []byte) (StandbySnapshot, error) {
	var s StandbySnapshot
	if len(payload) == 0 || payload[0] != frameSnapshot {
		return s, fmt.Errorf("cluster: not a SNAPSHOT frame")
	}
	var c binc.Codec
	c.ResetDecoder(payload[1:])
	s.code(&c)
	return s, c.Done()
}

// Snapshotter is the durable-state surface a shipper bundles alongside
// the aggregator's — satisfied by *rejuv.Controller (which cluster
// cannot import: rejuv sits above it).
type Snapshotter interface {
	AppendSnapshot(dst []byte) []byte
}

// StandbyShipper periodically ships the active plane's snapshots over
// one connection to a StandbyReceiver. Wire it to the aggregator with
// SubscribeEpochs(shipper.ObserveEpoch): every EveryEpochs-th epoch
// event triggers a ship on the delivery goroutine, after the fold
// released its locks — never on the ingest path. Each ship is one frame
// write bounded by DefaultWireTimeout and never retried: a failed write
// latches the shipper broken and closes the connection.
type StandbyShipper struct {
	agg   *Aggregator
	ctl   Snapshotter // optional; nil ships aggregator state only
	every int

	mu      sync.Mutex
	conn    net.Conn
	started bool
	broken  bool
	gen     uint64
	sinceOK int    // epochs since the last ship
	aggSnap []byte // the aggregator's snapshot blob, reused
	ctlSnap []byte // the controller's snapshot blob, reused
	frame   []byte

	shipped atomic.Int64
	errs    atomic.Int64
}

// NewStandbyShipper creates a shipper for agg's state over conn, shipping
// every everyEpochs epochs (min 1). ctl may be nil.
func NewStandbyShipper(conn net.Conn, agg *Aggregator, ctl Snapshotter, everyEpochs int) *StandbyShipper {
	if everyEpochs < 1 {
		everyEpochs = 1
	}
	return &StandbyShipper{agg: agg, ctl: ctl, every: everyEpochs, conn: conn}
}

// Shipped reports snapshot generations delivered to the connection.
func (s *StandbyShipper) Shipped() int64 { return s.shipped.Load() }

// Errors reports failed ship attempts (after the first, the shipper is
// latched broken and every ObserveEpoch tick counts one more).
func (s *StandbyShipper) Errors() int64 { return s.errs.Load() }

// ObserveEpoch counts epochs and ships on every-th one. Subscribe it
// after the consumers that advance state (the rejuvenation controller),
// so a shipped snapshot reflects the epoch it is stamped with.
func (s *StandbyShipper) ObserveEpoch(EpochEvent) {
	s.mu.Lock()
	s.sinceOK++
	due := s.sinceOK >= s.every
	if due {
		s.sinceOK = 0
	}
	s.mu.Unlock()
	if due {
		_ = s.Ship() // errors are latched and counted; epochs keep flowing
	}
}

// Ship captures and sends one snapshot generation now. Safe from the
// epoch-delivery goroutine (the aggregator's fold locks are free there);
// must not be called from inside Aggregator.Ingest or a fold.
func (s *StandbyShipper) Ship() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		s.errs.Add(1)
		return errors.New("cluster: standby shipper broken by an earlier failed write")
	}

	s.gen++
	s.aggSnap = s.agg.AppendSnapshot(s.aggSnap[:0])
	s.ctlSnap = s.ctlSnap[:0]
	if s.ctl != nil {
		s.ctlSnap = s.ctl.AppendSnapshot(s.ctlSnap)
	}
	f := s.frame[:0]
	if !s.started {
		f = append(f, wireMagic[:]...)
	}
	f = AppendSnapshotFrame(f, StandbySnapshot{Generation: s.gen, Aggregator: s.aggSnap, Controller: s.ctlSnap})
	s.frame = f

	if err := writeFrame(s.conn, f); err != nil {
		s.broken = true
		s.errs.Add(1)
		_ = s.conn.Close()
		return err
	}
	s.started = true
	s.shipped.Add(1)
	return nil
}

// Close closes the shipper's connection.
func (s *StandbyShipper) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.broken = true
	return s.conn.Close()
}

// StandbyReceiver is the warm standby's receiving end: it retains the
// latest snapshot generation, ready for promotion at any instant.
type StandbyReceiver struct {
	mu     sync.Mutex
	latest StandbySnapshot
	have   bool

	received atomic.Int64
}

// NewStandbyReceiver creates an empty receiver.
func NewStandbyReceiver() *StandbyReceiver { return &StandbyReceiver{} }

// Received reports snapshot generations accepted.
func (r *StandbyReceiver) Received() int64 { return r.received.Load() }

// Latest returns a copy of the most recent snapshot generation, and
// whether one has arrived yet. The copy is the caller's to keep — a
// promotion decided on it cannot be mutated by a later frame.
func (r *StandbyReceiver) Latest() (StandbySnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.have {
		return StandbySnapshot{}, false
	}
	out := StandbySnapshot{
		Generation: r.latest.Generation,
		Aggregator: append([]byte(nil), r.latest.Aggregator...),
		Controller: append([]byte(nil), r.latest.Controller...),
	}
	return out, true
}

// Serve reads SNAPSHOT frames from conn until it closes, retaining the
// latest generation. It returns nil on a clean EOF and an error on a
// stream it does not speak or a corrupt or regressing frame (and then
// closes the connection). Run it on its own goroutine.
func (r *StandbyReceiver) Serve(conn net.Conn) (err error) {
	defer func() {
		if err != nil {
			_ = conn.Close()
		}
	}()
	br := bufio.NewReader(conn)
	if ok, err := readMagic(br, "snapshot"); !ok {
		return err
	}
	return readFrames(br, func(payload []byte) error {
		snap, err := DecodeSnapshotFrame(payload)
		if err != nil {
			return err
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.have && snap.Generation <= r.latest.Generation {
			return fmt.Errorf("cluster: snapshot generation regressed (%d after %d)",
				snap.Generation, r.latest.Generation)
		}
		// Copy out of the reused read buffer before retaining.
		r.latest = StandbySnapshot{
			Generation: snap.Generation,
			Aggregator: append(r.latest.Aggregator[:0], snap.Aggregator...),
			Controller: append(r.latest.Controller[:0], snap.Controller...),
		}
		r.have = true
		r.received.Add(1)
		return nil
	})
}
