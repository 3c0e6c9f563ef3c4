package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/binc"
	"repro/internal/core"
)

// This file implements the binary wire codec for sampling rounds. The
// format is specified in docs/architecture.md ("Binary wire format"); the
// golden test in codec_test.go pins the bytes so the format cannot drift
// silently between versions, and FuzzBinaryCodec exercises the round-trip
// over arbitrary rounds.
//
// Design, in one paragraph: a stream starts with a 4-byte magic+version;
// rounds travel in length-prefixed BATCH frames — a uvarint round count,
// then that many rounds back to back, one per frame unless the publisher
// batches (see BinaryWire.SetBatch). Strings (node and component
// names) are interned per stream — sent once, then referenced by dense
// id — and every numeric field is delta-encoded against the previous
// round of the same node, to second order (delta-of-delta, Gorilla's
// timestamp trick): a steady-state monitoring stream advances every field
// at a constant rate — sequence numbers by one, sampling instants by the
// interval, cumulative consumption counters by their per-round growth —
// so the residual after subtracting the previous round's delta is
// (near-)zero and its zigzag varint is one byte where the raw value costs
// eight. CPU seconds (a float64) are quantised to integer nanoseconds and
// ride the same double-delta chain whenever the quantisation is bit-exact
// — which it is for every duration-derived consumption figure — with a
// per-sample flag falling back to XOR-against-previous raw bits for
// floats outside the nanosecond grid, so the codec stays lossless over
// the full float64 domain. A steady-state round of N samples costs
// roughly 4 + 7·N bytes on the wire, and both encoder and decoder reuse
// their buffers, so neither end allocates at steady state. All varints
// go through internal/binc: the encoder emits minimal encodings and the
// decoder rejects anything else, so every stream has one valid byte form.
//
// The codec is not fully general: sampling instants must be within the
// int64-nanosecond Unix range (years 1678–2262; monitoring timestamps
// always are), and decoded times carry the UTC location. Verdicts are
// unaffected — the aggregator consumes instants, not locations — and
// TestClusterTransportParity holds the in-process and wire transports to
// byte-identical verdicts.

// wireMagic opens every binary round stream: three identifying bytes and
// one format version byte. Bump the version on any incompatible change;
// the decoder refuses streams it does not speak so cross-version nodes
// fail loudly at connect time, not subtly at fold time.
//
// The decoder speaks version 6 only: second-order integer deltas with
// nanosecond-quantised CPU and latency seconds (XOR fallback off the
// grid), a live handle count per sample, and length-prefixed frames whose
// payload opens with a one-byte type — BATCH rounds and CONTROL-ACKs
// node→aggregator, CONTROL commands aggregator→node on the same
// connection (control.go), and SNAPSHOT frames on dedicated standby
// connections only (standby.go).
var wireMagic = [4]byte{'A', 'G', 'M', 6}

// Frame types: the first byte of every v6 frame payload.
const (
	// frameBatch carries sampling rounds (uvarint count + rounds).
	frameBatch = 0x00
	// frameControl carries one actuation command (aggregator → node).
	frameControl = 0x01
	// frameControlAck carries one command acknowledgement (node →
	// aggregator).
	frameControlAck = 0x02
	// frameSnapshot carries one durable-state snapshot (active
	// aggregator → warm standby; see standby.go).
	frameSnapshot = 0x03
)

// prevSample is the per-component delta-encoding state: the previous
// round's values for one component on one node, plus the previous deltas
// the second-order encoding subtracts.
type prevSample struct {
	size     int64
	usage    int64
	threads  int64
	handles  int64
	delta    int64
	cpuBits  uint64
	cpuNanos int64
	latBits  uint64
	latNanos int64

	dSize     int64
	dUsage    int64
	dThreads  int64
	dHandles  int64
	dDelta    int64
	dCPUNanos int64
	dLatNanos int64
}

// step advances one double-delta chain: given the new value, it returns
// the second-order residual to encode and updates value and delta state.
// The decoder runs the inverse (unstep). Overflow wraps identically on
// both ends, so the chain stays lossless over the full int64 domain.
func step(value, delta *int64, v int64) int64 {
	d := v - *value
	res := d - *delta
	*value, *delta = v, d
	return res
}

// unstep is step's decoding inverse: it folds a received residual into
// the chain and returns the reconstructed value.
func unstep(value, delta *int64, res int64) int64 {
	*delta += res
	*value += *delta
	return *value
}

// cpuNanosBound bounds the quantisable CPU range: beyond it v*1e9 cannot
// be held in an int64 (≈292 years of CPU time, far past any monitoring
// horizon — such values take the raw-bits fallback).
const cpuNanosBound = 9.0e18

const nanosPerSecond = int64(1e9)

// cpuFromNanos reconstructs CPU seconds from integer nanoseconds with
// exactly time.Duration.Seconds' arithmetic (split at the second, divide
// the remainder) — the computation every live consumption figure was
// born from, so quantise-then-reconstruct reproduces the original float
// bit for bit.
func cpuFromNanos(n int64) float64 {
	return float64(n/nanosPerSecond) + float64(n%nanosPerSecond)/1e9
}

// cpuNanos quantises CPU seconds to integer nanoseconds, reporting
// whether the round trip is bit-exact. Real consumption figures are
// duration-derived (Duration.Seconds), so the check passes for
// essentially every live sample and the mantissa-dense XOR fallback is
// reserved for adversarial inputs (fuzzing, hand-built rounds). Both
// codec ends derive the delta state through this same function, so a
// fallback sample never desynchronises the nanosecond chain.
func cpuNanos(v float64) (int64, bool) {
	scaled := v * 1e9
	if !(scaled > -cpuNanosBound && scaled < cpuNanosBound) { // NaN and ±Inf fail too
		return 0, false
	}
	n := int64(math.Round(scaled))
	if math.Float64bits(cpuFromNanos(n)) != math.Float64bits(v) {
		return 0, false
	}
	return n, true
}

// nodeCodecState is one node's delta-encoding state on a stream. One
// connection may multiplex several nodes' forwarders, so the state is
// keyed by interned node id on both ends.
type nodeCodecState struct {
	prevSeq  int64
	prevTime int64
	dSeq     int64
	dTime    int64
	prev     map[uint32]*prevSample // interned component id -> last values
}

func newNodeCodecState() *nodeCodecState {
	return &nodeCodecState{prev: make(map[uint32]*prevSample)}
}

// sample flag bits.
const (
	flagSizeOK   = 1 << 0
	flagCPUNanos = 1 << 1 // CPU field is a zigzag nanosecond delta, not XOR'd bits
	flagLatNanos = 1 << 2 // latency field is a zigzag nanosecond delta, not XOR'd bits
)

// BinaryEncoder encodes rounds into the binary wire format. It owns the
// stream-level interning and delta state, so one encoder serves exactly
// one stream; the batch buffer is reused across frames. Not safe for
// concurrent use (the BinaryWire transport serialises on its publish
// mutex).
//
// Rounds accumulate with BufferRound and leave as one BATCH frame on
// FlushFrame; AppendRound is the unbatched shorthand (buffer one round,
// flush immediately — a batch of one). Buffering encodes eagerly: the
// round's borrowed Samples are consumed before BufferRound returns, so
// the publisher's borrow contract holds however long the batch lingers.
type BinaryEncoder struct {
	started bool
	names   map[string]uint32
	nodes   map[uint32]*nodeCodecState
	batch   []byte // encoded rounds of the pending frame
	pending int    // rounds in batch
}

// NewBinaryEncoder creates an encoder for one fresh stream.
func NewBinaryEncoder() *BinaryEncoder {
	return &BinaryEncoder{
		names: make(map[string]uint32),
		nodes: make(map[uint32]*nodeCodecState),
	}
}

// appendString writes a string reference: uvarint(id+1) for an interned
// name, or 0 followed by the raw bytes for a first sighting (which
// implicitly assigns the next dense id on both ends).
func (e *BinaryEncoder) appendString(dst []byte, s string) ([]byte, uint32) {
	if id, ok := e.names[s]; ok {
		return binc.AppendUvarint(dst, uint64(id)+1), id
	}
	id := uint32(len(e.names))
	e.names[s] = id
	dst = binc.AppendUvarint(dst, 0)
	dst = binc.AppendUvarint(dst, uint64(len(s)))
	dst = append(dst, s...)
	return dst, id
}

// AppendRound appends one single-round frame (preceded by the stream
// header on the first call) to dst and returns the extended slice — the
// unbatched path, equivalent to BufferRound followed by FlushFrame.
func (e *BinaryEncoder) AppendRound(dst []byte, r Round) []byte {
	e.BufferRound(r)
	return e.FlushFrame(dst)
}

// PendingRounds reports how many buffered rounds the next FlushFrame
// will ship.
func (e *BinaryEncoder) PendingRounds() int { return e.pending }

// BufferRound encodes one round onto the pending BATCH frame. The
// round's Samples are fully consumed before it returns.
func (e *BinaryEncoder) BufferRound(r Round) {
	p := e.batch
	var nodeID uint32
	p, nodeID = e.appendString(p, r.Node)
	st := e.nodes[nodeID]
	if st == nil {
		st = newNodeCodecState()
		e.nodes[nodeID] = st
	}
	p = binc.AppendVarint(p, step(&st.prevSeq, &st.dSeq, r.Seq))
	p = binc.AppendVarint(p, step(&st.prevTime, &st.dTime, r.Time.UnixNano()))
	p = binc.AppendUvarint(p, uint64(len(r.Samples)))
	for _, s := range r.Samples {
		var compID uint32
		p, compID = e.appendString(p, s.Component)
		prev := st.prev[compID]
		if prev == nil {
			prev = &prevSample{}
			st.prev[compID] = prev
		}
		var flags byte
		if s.SizeOK {
			flags |= flagSizeOK
		}
		nanos, quantised := cpuNanos(s.CPUSeconds)
		if quantised {
			flags |= flagCPUNanos
		}
		latN, latQuantised := cpuNanos(s.LatencySeconds)
		if latQuantised {
			flags |= flagLatNanos
		}
		p = append(p, flags)
		p = binc.AppendVarint(p, step(&prev.size, &prev.dSize, s.Size))
		p = binc.AppendVarint(p, step(&prev.usage, &prev.dUsage, s.Usage))
		p = binc.AppendVarint(p, step(&prev.threads, &prev.dThreads, s.Threads))
		p = binc.AppendVarint(p, step(&prev.handles, &prev.dHandles, s.Handles))
		p = binc.AppendVarint(p, step(&prev.delta, &prev.dDelta, s.Delta))
		cpuBits := math.Float64bits(s.CPUSeconds)
		if quantised {
			// Steady-state CPU advances by a near-constant per-round
			// nanosecond delta: the second-order residual is a one-byte
			// zigzag where the XOR of two entropy-dense mantissas costs
			// 8-10 bytes.
			p = binc.AppendVarint(p, step(&prev.cpuNanos, &prev.dCPUNanos, nanos))
		} else {
			p = binc.AppendUvarint(p, cpuBits^prev.cpuBits)
			// Reset the nanosecond chain at the (identically derived)
			// fallback base so a later quantised sample deltas against the
			// same state on both ends.
			prev.cpuNanos, _ = cpuNanos(s.CPUSeconds)
			prev.dCPUNanos = 0
		}
		prev.cpuBits = cpuBits
		latBits := math.Float64bits(s.LatencySeconds)
		if latQuantised {
			p = binc.AppendVarint(p, step(&prev.latNanos, &prev.dLatNanos, latN))
		} else {
			p = binc.AppendUvarint(p, latBits^prev.latBits)
			prev.latNanos, _ = cpuNanos(s.LatencySeconds)
			prev.dLatNanos = 0
		}
		prev.latBits = latBits
	}
	e.batch = p
	e.pending++
}

// FlushFrame appends the pending BATCH frame — frame-type byte, uvarint
// round count, then the buffered rounds back to back, the whole payload
// length-prefixed and preceded by the stream header on the first flush —
// to dst and returns the extended slice. With nothing buffered it returns
// dst unchanged (no empty frames on the wire). The batch buffer is reused
// by subsequent rounds.
func (e *BinaryEncoder) FlushFrame(dst []byte) []byte {
	if e.pending == 0 {
		return dst
	}
	if !e.started {
		dst = append(dst, wireMagic[:]...)
		e.started = true
	}
	var scratch [binary.MaxVarintLen64]byte
	cnt := binc.AppendUvarint(scratch[:0], uint64(e.pending))
	dst = binc.AppendUvarint(dst, uint64(1+len(cnt)+len(e.batch)))
	dst = append(dst, frameBatch)
	dst = append(dst, cnt...)
	dst = append(dst, e.batch...)
	e.batch = e.batch[:0]
	e.pending = 0
	return dst
}

// BinaryDecoder decodes frames produced by a BinaryEncoder over one
// stream. The returned Round's Samples slice is owned by the decoder and
// valid until the next Decode — exactly the borrow contract
// Aggregator.Ingest honours by copying what it retains. Not safe for
// concurrent use.
type BinaryDecoder struct {
	names   []string
	nodes   map[uint32]*nodeCodecState
	samples []core.ComponentSample
}

// NewBinaryDecoder creates a decoder for one fresh stream.
func NewBinaryDecoder() *BinaryDecoder {
	return &BinaryDecoder{nodes: make(map[uint32]*nodeCodecState)}
}

// readString resolves a string reference, interning first sightings.
func (d *BinaryDecoder) readString(p *binc.Parser) (string, uint32, error) {
	ref := p.Uvarint()
	var raw []byte
	if ref == 0 {
		raw = p.Bytes(p.Remaining())
	}
	if err := p.Err(); err != nil {
		return "", 0, err
	}
	if ref == 0 {
		id := uint32(len(d.names))
		d.names = append(d.names, string(raw))
		return d.names[id], id, nil
	}
	id := ref - 1
	if id >= uint64(len(d.names)) {
		return "", 0, fmt.Errorf("cluster: dangling string reference %d", id)
	}
	return d.names[id], uint32(id), nil
}

// DecodeFrame decodes one frame payload (without its length prefix)
// carrying exactly one round — the unbatched shorthand for DecodeBatch,
// for peers that flush every round. The result's Samples slice is reused
// by the next decode.
func (d *BinaryDecoder) DecodeFrame(payload []byte) (Round, error) {
	var out Round
	got := false
	err := d.DecodeBatch(payload, func(r Round) error {
		if got {
			return fmt.Errorf("cluster: BATCH frame carries several rounds; decode with DecodeBatch")
		}
		out, got = r, true
		return nil
	})
	if err == nil && !got {
		err = fmt.Errorf("cluster: empty BATCH frame")
	}
	return out, err
}

// DecodeBatch decodes one BATCH frame payload (without its length
// prefix, including its leading frame-type byte), calling emit once per
// round in publish order. Each round's Samples slice is the decoder's
// reused buffer, valid only until emit returns — exactly the borrow
// contract Aggregator.Ingest honours by copying what it retains. A
// non-nil error from emit aborts the batch.
func (d *BinaryDecoder) DecodeBatch(payload []byte, emit func(Round) error) error {
	if len(payload) == 0 {
		return fmt.Errorf("cluster: empty frame")
	}
	if payload[0] != frameBatch {
		return fmt.Errorf("cluster: frame type %d is not a BATCH frame", payload[0])
	}
	p := binc.NewParser(payload[1:])
	count := p.Uvarint()
	if err := p.Err(); err != nil {
		return err
	}
	if count == 0 || count > uint64(len(payload)) {
		// Empty batches are never sent, and a round costs well over one
		// byte: either way the count is corruption, not a big batch.
		return fmt.Errorf("cluster: BATCH round count %d is corrupt for a %d-byte frame", count, len(payload))
	}
	for i := uint64(0); i < count; i++ {
		r, err := d.decodeRound(p)
		if err != nil {
			return err
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	return p.Done()
}

// decodeRound decodes one round at the parser's cursor. The round's
// Samples slice is reused by the next call. The parser's error is sticky,
// so each group of fields is read linearly and checked once, before any
// of it touches the delta state.
func (d *BinaryDecoder) decodeRound(p *binc.Parser) (Round, error) {
	var r Round
	node, nodeID, err := d.readString(p)
	if err != nil {
		return r, err
	}
	dseq, dt, n := p.Varint(), p.Varint(), p.Uvarint()
	if err := p.Err(); err != nil {
		return r, err
	}
	if n > uint64(p.Remaining()) {
		// Each sample needs at least a handful of bytes; a count larger
		// than the frame's remaining bytes is corruption, not a big round.
		return r, fmt.Errorf("cluster: sample count %d exceeds frame size", n)
	}
	r.Node = node
	st := d.nodes[nodeID]
	if st == nil {
		st = newNodeCodecState()
		d.nodes[nodeID] = st
	}
	r.Seq = unstep(&st.prevSeq, &st.dSeq, dseq)
	r.Time = time.Unix(0, unstep(&st.prevTime, &st.dTime, dt)).UTC()
	samples := d.samples[:0]
	for i := uint64(0); i < n; i++ {
		comp, compID, err := d.readString(p)
		if err != nil {
			return r, err
		}
		flags := p.Byte()
		ds, du, dth, dh, dd := p.Varint(), p.Varint(), p.Varint(), p.Varint(), p.Varint()
		// CPU and latency each ride as a zigzag nanosecond residual or,
		// off the nanosecond grid, as XOR'd raw bits (see the flag bits).
		var cpuRes, latRes int64
		var cpuXor, latXor uint64
		if flags&flagCPUNanos != 0 {
			cpuRes = p.Varint()
		} else {
			cpuXor = p.Uvarint()
		}
		if flags&flagLatNanos != 0 {
			latRes = p.Varint()
		} else {
			latXor = p.Uvarint()
		}
		if err := p.Err(); err != nil {
			return r, err
		}
		prev := st.prev[compID]
		if prev == nil {
			prev = &prevSample{}
			st.prev[compID] = prev
		}
		samples = append(samples, core.ComponentSample{
			Component: comp,
			Size:      unstep(&prev.size, &prev.dSize, ds),
			SizeOK:    flags&flagSizeOK != 0,
			Usage:     unstep(&prev.usage, &prev.dUsage, du),
			CPUSeconds: unquantise(flags&flagCPUNanos != 0, cpuRes, cpuXor,
				&prev.cpuNanos, &prev.dCPUNanos, &prev.cpuBits),
			Threads: unstep(&prev.threads, &prev.dThreads, dth),
			Handles: unstep(&prev.handles, &prev.dHandles, dh),
			LatencySeconds: unquantise(flags&flagLatNanos != 0, latRes, latXor,
				&prev.latNanos, &prev.dLatNanos, &prev.latBits),
			Delta: unstep(&prev.delta, &prev.dDelta, dd),
		})
	}
	d.samples = samples
	r.Samples = samples
	return r, nil
}

// unquantise reconstructs one seconds field (CPU or latency) from its
// wire form and advances both of the field's chains: a quantised field
// folds its residual into the nanosecond chain; a raw field XORs its bits
// and resets the nanosecond chain at the identically derived base —
// mirroring the encoder, so a later quantised sample deltas against the
// same state on both ends.
func unquantise(quantised bool, res int64, xor uint64, nanos, dNanos *int64, bits *uint64) float64 {
	if quantised {
		v := cpuFromNanos(unstep(nanos, dNanos, res))
		*bits = math.Float64bits(v)
		return v
	}
	*bits ^= xor
	v := math.Float64frombits(*bits)
	*nanos, _ = cpuNanos(v)
	*dNanos = 0
	return v
}
