package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport carries sampling rounds from a node's collector to an
// aggregator. Implementations must preserve per-node publish order;
// nothing else is assumed — the in-process transport is a direct call,
// the wire transport is binary-codec frames over a net.Conn.
type Transport interface {
	// Publish ships one round. It may block briefly (wire flow control)
	// but must not be called concurrently for the same node. The round's
	// Samples are borrowed from the publishing collector: Publish must
	// finish consuming them (encode the frame, or ingest in-process)
	// before returning, and must copy if it buffers the round for later.
	Publish(Round) error
	// Close releases the transport. Publishing after Close fails.
	Close() error
}

// InProc is the zero-copy transport for nodes living in the aggregator's
// process (the simulated cluster, tests, single-binary deployments):
// Publish ingests synchronously, so by the time a node's sampling round
// returns, the cluster state already reflects it.
type InProc struct {
	mu     sync.Mutex
	agg    *Aggregator
	closed bool
}

// NewInProc creates an in-process transport feeding agg.
func NewInProc(agg *Aggregator) *InProc { return &InProc{agg: agg} }

// Publish implements Transport by direct ingestion.
func (p *InProc) Publish(r Round) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return errors.New("cluster: transport closed")
	}
	p.agg.Ingest(r)
	return nil
}

// Close implements Transport.
func (p *InProc) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return nil
}

// DefaultWireTimeout bounds every frame write on a cluster connection
// (round, ack, command and snapshot frames alike). Publish runs under the
// collector's round lock, so an unbounded write to a stalled aggregator
// (dead peer, full TCP buffer) would wedge the node's sampling forever —
// the forwarder's contract is that a node keeps sampling locally when
// its aggregator link is down, which requires Publish to fail, not hang.
const DefaultWireTimeout = 5 * time.Second

// writeFrame writes one whole frame, bounded by DefaultWireTimeout. A
// failed write is never retried: the codec's delta chains assume the
// peer saw every frame, and bytes already on the stream would corrupt its
// framing, so the caller fail-stops and its owner reconnects.
func writeFrame(conn net.Conn, frame []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultWireTimeout))
	_, err := conn.Write(frame)
	_ = conn.SetWriteDeadline(time.Time{})
	return err
}

// BinaryWire ships rounds as delta-encoded binary frames (see codec.go)
// over a net.Conn, so a node can live in a different process (or host)
// from its aggregator: names are interned per connection and every
// numeric field rides as a small varint delta, and Publish reuses one
// frame buffer so it allocates nothing. SetBatch turns on multi-round
// BATCH frames with a count/deadline flush policy for fleet fan-in. The
// publish mutex admits several forwarders multiplexed onto one
// connection (per-node ordering is then the caller's sampling order,
// which the collector already serialises). Every frame write is bounded
// by DefaultWireTimeout and never retried: a failed write latches the
// wire broken and closes the connection, and a timed-out write may leave
// a partial frame after which the receiver errors and drops the
// connection — fail-stop, never wedged.
type BinaryWire struct {
	mu      sync.Mutex
	conn    net.Conn
	enc     *BinaryEncoder
	frame   []byte
	broken  bool
	dropped atomic.Int64

	batchRounds int           // flush when this many rounds are buffered (<=1: every round)
	batchDelay  time.Duration // flush a partial batch this long after its first round (0: never)
	timer       *time.Timer   // pending deadline flush, nil when none armed
	gen         uint64        // flush generation; a stale deadline flush no-ops
}

// NewBinaryWire wraps an established connection as a binary-codec
// publishing transport. The peer must serve it with ServeBinaryConn (the
// stream header makes a peer that speaks anything else fail at connect
// time).
func NewBinaryWire(conn net.Conn) *BinaryWire {
	return &BinaryWire{conn: conn, enc: NewBinaryEncoder()}
}

// DroppedRounds reports rounds this wire accepted (or was offered) but
// never delivered: the batch lost when a flush failed, plus every
// publish refused after the broken latch.
func (w *BinaryWire) DroppedRounds() int64 { return w.dropped.Load() }

// SetBatch sets the BATCH flush policy: buffer up to rounds rounds per
// frame, flushing earlier when a partial batch has waited delay since
// its first round (delay 0 means only the count flushes). rounds <= 1
// restores the unbatched one-frame-per-round behaviour. Any currently
// buffered rounds are flushed first, so the policy change never reorders
// the stream.
//
// Batching trades verdict latency for wire efficiency: the aggregator
// sees a buffered round only when its frame flushes, so delay bounds the
// staleness a batch can add and should stay well under the sampling
// interval times the aggregator's staleness window.
func (w *BinaryWire) SetBatch(rounds int, delay time.Duration) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return err
	}
	w.batchRounds = rounds
	w.batchDelay = delay
	return nil
}

// Publish implements Transport: the round is encoded onto the pending
// BATCH frame immediately (consuming the borrowed Samples before
// returning), and the frame ships when the batch policy says so — at
// once when unbatched, else on the count or deadline trigger. The frame
// buffer is reused across publishes.
//
// A failed or short write breaks the transport permanently: the codec's
// deltas and XOR chains assume the decoder saw every frame the encoder
// produced — the encoder's state already reflects the lost round, so
// continuing would make every later round decode to silently wrong
// values. The wire latches the error, closes the
// connection, and fails every subsequent Publish; the owner reconnects
// with a fresh wire (and therefore fresh codec state on both ends).
// Under batching a write error surfaces on the Publish (or Flush, or
// deadline flush) that ships the frame; earlier buffering publishes have
// already returned nil, and the latch fails everything after.
func (w *BinaryWire) Publish(r Round) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		w.dropped.Add(1)
		return errors.New("cluster: binary wire broken by an earlier failed write")
	}
	w.enc.BufferRound(r)
	if w.batchRounds > 1 && w.enc.PendingRounds() < w.batchRounds {
		if w.batchDelay > 0 && w.timer == nil {
			gen := w.gen
			w.timer = time.AfterFunc(w.batchDelay, func() { w.deadlineFlush(gen) })
		}
		return nil
	}
	return w.flushLocked()
}

// Flush ships any buffered rounds now, regardless of the batch policy.
func (w *BinaryWire) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return errors.New("cluster: binary wire broken by an earlier failed write")
	}
	return w.flushLocked()
}

// deadlineFlush is the timer callback: it ships the batch the deadline
// was armed for, unless a count flush (or Flush, or Close) already did.
func (w *BinaryWire) deadlineFlush(gen uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gen != gen || w.broken {
		return
	}
	_ = w.flushLocked() // a write error is latched in broken for the next Publish
}

// flushLocked ships the pending frame under w.mu, disarming any deadline
// timer. No-op when nothing is buffered.
func (w *BinaryWire) flushLocked() error {
	w.gen++
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if w.enc.PendingRounds() == 0 {
		return nil
	}
	rounds := int64(w.enc.PendingRounds())
	w.frame = w.enc.FlushFrame(w.frame[:0])
	if err := writeFrame(w.conn, w.frame); err != nil {
		w.broken = true
		w.dropped.Add(rounds)
		_ = w.conn.Close()
		return err
	}
	return nil
}

// Close implements Transport, flushing any buffered rounds first (best
// effort — a flush failure is reported after the connection is closed).
func (w *BinaryWire) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var flushErr error
	if !w.broken {
		flushErr = w.flushLocked()
	}
	err := w.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return err
}

// maxBinaryFrame bounds one decoded frame; a length prefix beyond it is
// stream corruption, not a huge round (a 16 MB frame would be ~500k
// samples).
const maxBinaryFrame = 16 << 20

// readMagic reads the stream header that opens a round or snapshot
// stream; what names the stream in the mismatch error. ok is false with
// a nil error when the stream ended before its first byte — a peer that
// connected and left, which is a clean end, not corruption.
func readMagic(br *bufio.Reader, what string) (ok bool, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
			return false, nil
		}
		return false, err
	}
	if magic != wireMagic {
		return false, fmt.Errorf("cluster: not a %s stream (magic %x)", what, magic)
	}
	return true, nil
}

// readFrames reads length-prefixed frames from br and hands each payload
// to fn until the stream ends. It returns nil when the stream ends on a
// frame boundary (or the connection is closed under it), the first error
// fn returns, and an error for a length prefix over maxBinaryFrame or a
// frame cut short. The payload buffer is reused across frames: fn must
// copy whatever it retains.
func readFrames(br *bufio.Reader, fn func(payload []byte) error) error {
	var payload []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if n > maxBinaryFrame {
			return fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
		}
		if uint64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}

// ServeBinaryConn decodes binary-codec frames from conn into the
// aggregator until the connection closes: BATCH frames ingest their
// rounds, ACK frames resolve pending control commands. Every node name
// seen in a round registers conn as that node's control route, so the
// aggregator can push drain/rejuvenate/re-admit commands back down the
// same connection (see control.go); the routes are torn down — and any
// in-flight commands failed — when the serving loop ends. It returns nil
// on a clean EOF and an error on a stream it does not speak (wrong magic
// or version) or a corrupt frame — and then closes the connection, so a
// publisher behind a broken stream fail-stops on its next write instead
// of wedging against a reader that gave up. Run it on its own goroutine,
// one per node connection. The decode buffers are reused; Ingest copies
// what it retains.
func (a *Aggregator) ServeBinaryConn(conn net.Conn) (err error) {
	cc := &controlConn{conn: conn}
	routed := make(map[string]bool)
	defer func() {
		a.unregisterControlConn(cc, routed)
		if err != nil {
			_ = conn.Close()
		}
	}()
	br := bufio.NewReader(conn)
	if ok, err := readMagic(br, "binary round"); !ok {
		return err
	}
	dec := NewBinaryDecoder()
	ingest := func(r Round) error {
		a.Ingest(r)
		if !routed[r.Node] {
			routed[r.Node] = true
			a.registerControlConn(r.Node, cc)
		}
		return nil
	}
	return readFrames(br, func(payload []byte) error {
		if len(payload) == 0 {
			return errors.New("cluster: empty frame")
		}
		switch payload[0] {
		case frameBatch:
			return dec.DecodeBatch(payload, ingest)
		case frameControlAck:
			ack, err := DecodeControlAck(payload)
			if err != nil {
				return err
			}
			a.resolveControlAck(ack)
			return nil
		default:
			return fmt.Errorf("cluster: unknown frame type %d", payload[0])
		}
	})
}
