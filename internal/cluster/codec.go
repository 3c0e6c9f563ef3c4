package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/binc"
	"repro/internal/core"
)

// This file implements the binary wire codec. The format is specified in
// docs/architecture.md ("Binary wire format"); the goldens in
// codec_test.go and control_test.go pin its bytes, FuzzBinaryCodec
// round-trips arbitrary rounds, and TestWireFuzzSeedOutcomes pins what
// every decoder does with each committed fuzz seed.
//
// Each frame type is written once, as one function over a binc.Codec
// that the encoder and the decoder both run, so a decoder cannot drift
// from its encoder: codeRound for a BATCH frame's rounds,
// ControlCommand.code and ControlAck.code for CONTROL and CONTROL-ACK
// (control.go), and StandbySnapshot.code for SNAPSHOT (standby.go).
//
// A round's names are interned per stream, and every numeric field rides
// a second-order delta chain per node and component (delta-of-delta,
// Gorilla's timestamp trick): a steady stream advances each field at a
// constant rate, so its residual is a one-byte zigzag varint. CPU and
// latency seconds ride a nanosecond chain whenever they quantise
// bit-exactly, which every duration-derived figure does, and XOR their
// raw bits otherwise, so the codec stays lossless over the full float64
// domain. A steady round of N samples costs roughly 4 + 7·N bytes, and
// neither end allocates at steady state. Sampling instants must lie in
// the int64-nanosecond Unix range (years 1678–2262), and decoded times
// carry the UTC location; TestClusterTransportParity holds the wire and
// in-process transports to byte-identical verdicts.

// wireMagic opens every binary round stream: three identifying bytes and
// one format version byte. Bump the version on any incompatible change;
// the decoder speaks version 6 only, so cross-version nodes fail loudly
// at connect time, not subtly at fold time.
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

// chain is one integer field's second-order delta state on a stream:
// the value the field last took and the delta it last moved by.
type chain struct{ value, delta int64 }

// code codes one field of the chain and returns the field's value. An
// encoder steps the chain to v and writes the second-order residual; a
// decoder reads the residual in place of v's and steps the chain by it.
// Overflow wraps identically on both ends, so the chain stays lossless
// over the full int64 domain.
func (ch *chain) code(c *binc.Codec, v int64) int64 {
	v -= ch.value + ch.delta
	c.Varint(&v)
	ch.delta += v
	ch.value += ch.delta
	return ch.value
}

// secondsChain is one seconds field's state (CPU or latency): its
// nanosecond chain and the raw bits of its last figure.
type secondsChain struct {
	nanos chain
	bits  uint64
}

// code codes one seconds figure and returns it. On the nanosecond grid
// (quantised, as the sample's flag byte says; nanos is the encoder's
// quantised figure) it rides the nanosecond chain. Off the grid it
// travels as its raw bits XORed with the last figure's, and the
// nanosecond chain restarts at zero on both ends, so a later quantised
// figure deltas against the same state.
func (f *secondsChain) code(c *binc.Codec, v float64, nanos int64, quantised bool) float64 {
	if quantised {
		nanos = f.nanos.code(c, nanos)
		if c.Decoding() {
			v = time.Duration(nanos).Seconds()
		}
	} else {
		x := math.Float64bits(v) ^ f.bits
		c.Uvarint(&x)
		v = math.Float64frombits(f.bits ^ x)
		f.nanos = chain{}
	}
	f.bits = math.Float64bits(v)
	return v
}

// cpuNanos quantises seconds to integer nanoseconds, reporting whether
// time.Duration.Seconds — the arithmetic every live consumption figure
// was born from — reproduces v bit for bit from them. So the check
// passes for essentially every live sample, and the mantissa-dense XOR
// fallback is reserved for adversarial inputs (fuzzing, hand-built
// rounds) and for figures past ±9e18 ns (≈292 years), which an int64
// cannot hold.
func cpuNanos(v float64) (int64, bool) {
	scaled := v * 1e9
	if !(scaled > -9e18 && scaled < 9e18) { // NaN and ±Inf fail too
		return 0, false
	}
	n := int64(math.Round(scaled))
	return n, math.Float64bits(time.Duration(n).Seconds()) == math.Float64bits(v)
}

// nodeChains is one node's delta-encoding state on a stream. One
// connection may multiplex several nodes' forwarders, so the state is
// keyed by interned node id on both ends.
type nodeChains struct {
	seq, time chain
	samples   map[uint32]*sampleChains // interned component id -> chains
}

// sampleChains is one component's delta-encoding state on one node.
type sampleChains struct {
	size, usage, threads, handles, delta chain
	cpu, latency                         secondsChain
}

// sample flag bits.
const (
	flagSizeOK   = 1 << 0
	flagCPUNanos = 1 << 1 // CPU field is a zigzag nanosecond delta, not XOR'd bits
	flagLatNanos = 1 << 2 // latency field is a zigzag nanosecond delta, not XOR'd bits
)

// maxWireNames bounds the names one stream may intern: room for a
// restorable plane's 2^16 node names plus 2^16 component names. A
// decoder refuses a first sighting past it, so one connection cannot
// grow the dictionary or the delta state keyed by it without bound.
const maxWireNames = 1 << 17

// roundCodec is one stream's round-coding state, the same on both ends:
// the interned names in first-sighting order and each node's delta
// chains. codeRound is the BATCH frame's one field list, run by the
// encoder and the decoder alike.
type roundCodec struct {
	c       binc.Codec
	names   []string
	ids     map[string]uint32 // encoder only: name -> interned id
	nodes   map[uint32]*nodeChains
	samples []core.ComponentSample // decoder only: the reused Samples buffer
}

// name codes one interned string (a node or component name) and returns
// its dense id: uvarint(id+1) for a name the stream has interned, or 0
// and then the name itself for a first sighting, which takes the next id
// on both ends. It reports false once decoding has failed, so no caller
// indexes by a dangling reference or by a first sighting past
// maxWireNames.
func (rc *roundCodec) name(s *string) (uint32, bool) {
	c := &rc.c
	var ref uint64
	if id, interned := rc.ids[*s]; interned {
		ref = uint64(id) + 1
	}
	c.Uvarint(&ref)
	switch {
	case ref == 0:
		c.Check(len(rc.names) < maxWireNames, "cluster: stream interns more than %d names", maxWireNames)
		c.String(s)
		if c.Err() != nil {
			return 0, false
		}
		rc.names = append(rc.names, *s)
		ref = uint64(len(rc.names))
		if rc.ids != nil {
			rc.ids[*s] = uint32(ref - 1)
		}
	case ref > uint64(len(rc.names)): // only a decoder meets one
		c.Check(false, "cluster: dangling string reference %d", ref-1)
		return 0, false
	default:
		*s = rc.names[ref-1]
	}
	return uint32(ref - 1), c.Err() == nil
}

// codeRound codes one round: its node's name, then the sequence number
// and sampling instant on the node's chains, then the sample count and
// each sample. A decoded round's Samples is the reused buffer.
func (rc *roundCodec) codeRound(r *Round) {
	c := &rc.c
	nodeID, ok := rc.name(&r.Node)
	if !ok {
		return
	}
	st := rc.nodes[nodeID]
	if st == nil {
		st = &nodeChains{samples: make(map[uint32]*sampleChains)}
		rc.nodes[nodeID] = st
	}
	r.Seq = st.seq.code(c, r.Seq)
	ns := st.time.code(c, r.Time.UnixNano())
	// Every sample costs several bytes, so a count past the frame limit
	// is corruption; one within it stops at the frame's end.
	n := len(r.Samples)
	c.Count(&n, maxBinaryFrame)
	if !c.Decoding() {
		for _, s := range r.Samples { // copies: the caller's Samples are borrowed
			rc.codeSample(st, &s)
		}
		return
	}
	r.Time = time.Unix(0, ns).UTC()
	r.Samples = rc.samples[:0]
	for i := 0; i < n && c.Err() == nil; i++ {
		var s core.ComponentSample
		rc.codeSample(st, &s)
		r.Samples = append(r.Samples, s)
	}
	rc.samples = r.Samples
}

// codeSample codes one sample: its component's name, a flag byte, the
// five integer fields on their chains, then CPU and latency seconds.
func (rc *roundCodec) codeSample(st *nodeChains, s *core.ComponentSample) {
	c := &rc.c
	id, ok := rc.name(&s.Component)
	if !ok {
		return
	}
	ch := st.samples[id]
	if ch == nil {
		ch = &sampleChains{}
		st.samples[id] = ch
	}
	var flags byte
	var cpuN, latN int64
	if !c.Decoding() {
		var cpuQ, latQ bool
		cpuN, cpuQ = cpuNanos(s.CPUSeconds)
		latN, latQ = cpuNanos(s.LatencySeconds)
		if s.SizeOK {
			flags |= flagSizeOK
		}
		if cpuQ {
			flags |= flagCPUNanos
		}
		if latQ {
			flags |= flagLatNanos
		}
	}
	c.Byte(&flags)
	s.SizeOK = flags&flagSizeOK != 0
	s.Size = ch.size.code(c, s.Size)
	s.Usage = ch.usage.code(c, s.Usage)
	s.Threads = ch.threads.code(c, s.Threads)
	s.Handles = ch.handles.code(c, s.Handles)
	s.Delta = ch.delta.code(c, s.Delta)
	s.CPUSeconds = ch.cpu.code(c, s.CPUSeconds, cpuN, flags&flagCPUNanos != 0)
	s.LatencySeconds = ch.latency.code(c, s.LatencySeconds, latN, flags&flagLatNanos != 0)
}

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
	roundCodec // its codec appends the pending frame's rounds
	started    bool
	pending    int // rounds in the pending frame
}

// NewBinaryEncoder creates an encoder for one fresh stream.
func NewBinaryEncoder() *BinaryEncoder {
	return &BinaryEncoder{roundCodec: roundCodec{
		ids:   make(map[string]uint32),
		nodes: make(map[uint32]*nodeChains),
	}}
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
	e.codeRound(&r)
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
	start := len(dst)
	dst = binc.AppendUvarint(append(dst, frameBatch), uint64(e.pending))
	rounds := e.c.Buffer()
	dst = prefixLength(append(dst, rounds...), start)
	e.c.ResetEncoder(rounds[:0])
	e.pending = 0
	return dst
}

// prefixLength slides the uvarint length of the frame payload buf[start:]
// in front of it, so a frame is coded in place, after whatever buf held,
// with no buffer of its own.
func prefixLength(buf []byte, start int) []byte {
	var n [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(n[:], uint64(len(buf)-start))
	buf = append(buf, n[:w]...)
	copy(buf[start+w:], buf[start:len(buf)-w])
	copy(buf[start:], n[:w])
	return buf
}

// BinaryDecoder decodes frames produced by a BinaryEncoder over one
// stream. The returned Round's Samples slice is owned by the decoder and
// valid until the next Decode — exactly the borrow contract
// Aggregator.Ingest honours by copying what it retains. Not safe for
// concurrent use.
//
// After a decode error the stream is dead: fields read past the first
// failure read as zero values and may still have stepped the delta
// chains, so a later frame would decode against corrupt state. That is
// safe only because ServeBinaryConn closes the connection on the first
// error; any other caller must drop the decoder with the stream.
type BinaryDecoder struct {
	roundCodec
}

// NewBinaryDecoder creates a decoder for one fresh stream.
func NewBinaryDecoder() *BinaryDecoder {
	return &BinaryDecoder{roundCodec{nodes: make(map[uint32]*nodeChains)}}
}

// DecodeFrame decodes one frame payload (without its length prefix)
// carrying exactly one round — the unbatched shorthand for DecodeBatch,
// for peers that flush every round. The result's Samples slice is reused
// by the next decode.
func (d *BinaryDecoder) DecodeFrame(payload []byte) (Round, error) {
	var out Round
	rounds := 0
	err := d.DecodeBatch(payload, func(r Round) error {
		if rounds++; rounds > 1 {
			return fmt.Errorf("cluster: BATCH frame carries several rounds; decode with DecodeBatch")
		}
		out = r
		return nil
	})
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
	c := &d.c
	c.ResetDecoder(payload[1:])
	var count uint64
	c.Uvarint(&count)
	if err := c.Err(); err != nil {
		return err
	}
	if count == 0 || count > uint64(len(payload)) {
		// Empty batches are never sent, and a round costs well over one
		// byte: either way the count is corruption, not a big batch.
		return fmt.Errorf("cluster: BATCH round count %d is corrupt for a %d-byte frame", count, len(payload))
	}
	for i := uint64(0); i < count; i++ {
		var r Round
		d.codeRound(&r)
		if err := c.Err(); err != nil {
			return err
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	return c.Done()
}
