package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// decodeStream decodes a whole encoded byte stream (header + frames) with
// one decoder, failing the test on any error.
func decodeStream(t *testing.T, stream []byte) []Round {
	t.Helper()
	if len(stream) < 4 || [4]byte(stream[:4]) != wireMagic {
		t.Fatalf("stream does not open with the wire magic: %x", stream[:min(8, len(stream))])
	}
	dec := NewBinaryDecoder()
	rest := stream[4:]
	var out []Round
	for len(rest) > 0 {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			t.Fatalf("bad frame length prefix at offset %d", len(stream)-len(rest))
		}
		err := dec.DecodeBatch(rest[w:w+int(n)], func(r Round) error {
			// The decoder reuses its samples buffer; keep a copy like Ingest.
			r.Samples = append([]core.ComponentSample(nil), r.Samples...)
			out = append(out, r)
			return nil
		})
		if err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		rest = rest[w+int(n):]
	}
	return out
}

func sampleRounds() []Round {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(node string, seq int64, leak int64) Round {
		at := t0.Add(time.Duration(seq) * 30 * time.Second)
		return Round{
			Node: node, Seq: seq, Time: at,
			Samples: []core.ComponentSample{
				{Component: "leaky", Size: 1 << 20, SizeOK: true, Usage: 100 * seq,
					CPUSeconds: 0.25 * float64(seq), Threads: 3, Handles: 2 + seq,
					LatencySeconds: 0.5 * float64(seq), Delta: leak * seq},
				{Component: "steady", Size: 4096, SizeOK: true, Usage: 240 * seq,
					CPUSeconds: 0.5 * float64(seq), Threads: 5, Handles: 2,
					LatencySeconds: 0.75 * float64(seq)},
				{Component: "unsized", Usage: 7 * seq},
			},
		}
	}
	return []Round{
		mk("node1", 1, 0), mk("node2", 1, 4096),
		mk("node1", 2, 0), mk("node2", 2, 4096),
		mk("node1", 3, 0),
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	enc := NewBinaryEncoder()
	var stream []byte
	rounds := sampleRounds()
	for _, r := range rounds {
		stream = append(stream, enc.AppendRound(nil, r)...)
	}
	got := decodeStream(t, stream)
	if len(got) != len(rounds) {
		t.Fatalf("decoded %d rounds, want %d", len(got), len(rounds))
	}
	for i, want := range rounds {
		g := got[i]
		if g.Node != want.Node || g.Seq != want.Seq || !g.Time.Equal(want.Time) {
			t.Fatalf("round %d header mismatch: %+v", i, g)
		}
		if len(g.Samples) != len(want.Samples) {
			t.Fatalf("round %d: %d samples, want %d", i, len(g.Samples), len(want.Samples))
		}
		for j, ws := range want.Samples {
			if g.Samples[j] != ws {
				t.Fatalf("round %d sample %d: %+v, want %+v", i, j, g.Samples[j], ws)
			}
		}
	}
}

// TestBinaryCodecSteadyStateDensity pins the codec's reason to exist: at
// steady state (names interned, deltas small) a round must cost a small
// fraction of a self-describing encoding of the same round (stdlib gob,
// here only as the yardstick — the gob transport itself is gone) — the
// acceptance bar is 2×, the codec does far better.
func TestBinaryCodecSteadyStateDensity(t *testing.T) {
	enc := NewBinaryEncoder()
	var gobBytes, binBytes int
	var gobBuf bytes.Buffer
	gobEnc := gob.NewEncoder(&gobBuf)
	rounds := manyRounds("node1", 50, 14)
	for i, r := range rounds {
		frame := enc.AppendRound(nil, r)
		if err := gobEnc.Encode(r); err != nil {
			t.Fatal(err)
		}
		if i >= 25 { // steady state: second half of the run
			binBytes += len(frame)
			gobBytes += gobBuf.Len()
		}
		gobBuf.Reset()
	}
	if binBytes*2 > gobBytes {
		t.Fatalf("binary codec not ≥2× denser than gob at steady state: %d vs %d bytes over 25 rounds",
			binBytes, gobBytes)
	}
	t.Logf("steady-state bytes per round: binary %d, gob %d (%.1fx)",
		binBytes/25, gobBytes/25, float64(gobBytes)/float64(binBytes))
}

// TestBinaryCodecGolden pins the wire format byte for byte, so a future
// change that would break cross-version node/aggregator pairs fails
// loudly here instead of silently at decode time. If you change the
// format intentionally, bump the version byte in wireMagic and re-pin.
func TestBinaryCodecGolden(t *testing.T) {
	enc := NewBinaryEncoder()
	var stream []byte
	rounds := sampleRounds()
	for _, r := range rounds[:3] {
		stream = append(stream, enc.AppendRound(nil, r)...)
	}
	// The last two rounds ship as one BATCH frame on the same stream,
	// pinning the multi-round frame layout alongside the batch-of-one
	// frames above.
	enc.BufferRound(rounds[3])
	enc.BufferRound(rounds[4])
	stream = enc.FlushFrame(stream)
	// The stream: 4-byte header (magic "AGM", version 6), then
	// length-prefixed frames, each opening with its frame-type byte (0x00
	// = BATCH; CONTROL/ACK frames are pinned in control_test.go) and its
	// uvarint round count (0x01 for the unbatched frames, 0x02 for the
	// final pair).
	// The first frame carries every name verbatim (first sightings) and
	// full values (the double-delta chains start at zero); names intern
	// per stream, so the node2 frame already references the component
	// names by 1-byte id and only introduces "node2" itself; the third
	// frame is node1's second — linear counters collapse to zero
	// second-order residuals (single 0x00 bytes) and the time chain pays
	// its one-time large residual. The sample CPU and latency figures
	// (multiples of 0.25s) quantise exactly, so every sample carries
	// flagCPUNanos|flagLatNanos and rides the nanosecond double-delta
	// chains instead of the v1 XOR'd float bits. The final frame (0x4b
	// bytes, type 0x00, count 0x02) carries node2's second round — paying
	// its one-time time residual like node1 did — and node1's third, fully
	// steady round, whose linear chains are almost all single zero bytes.
	const want = "41474d065a000100056e6f6465310280b08dabf9b4cd84230300056c65616b7907" +
		"80808001c80106060080cab5ee018094ebdc030006737465616479078040e0030a" +
		"04008094ebdc0380dea0cb050007756e73697a656406000e000000000046000100" +
		"056e6f6465320280b08dabf9b4cd842303020780808001c8010606804080cab5ee" +
		"018094ebdc0303078040e0030a04008094ebdc0380dea0cb050406000e00000000" +
		"002c00010100ffffefe899b3cd8423030207ffff7f0005030000000307ff3f0009" +
		"030000000406000000000000004b00020500ffffefe899b3cd8423030207ffff7f" +
		"0005030000000307ff3f0009030000000406000000000000000100000302070000" +
		"0000000000030700000000000000040600000000000000"
	got := hex.EncodeToString(stream)
	if got != normalizeHex(want) {
		t.Fatalf("wire format drifted.\n got: %s\nwant: %s", got, normalizeHex(want))
	}
}

func normalizeHex(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\n' || c == ' ' {
			continue
		}
		out = append(out, c)
	}
	return string(out)
}

// manyRounds builds a deterministic steady-state stream: cumulative
// counters grow by fixed per-round deltas. CPU figures are derived the
// way the CPU agent derives them — Duration.Seconds over an accumulated
// nanosecond count — so the stream exercises the codec's quantised CPU
// path exactly as live rounds do.
func manyRounds(node string, rounds, comps int) []Round {
	t0 := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	names := make([]string, comps)
	for c := range names {
		names[c] = "component-" + string(rune('a'+c))
	}
	out := make([]Round, 0, rounds)
	for seq := int64(1); seq <= int64(rounds); seq++ {
		r := Round{Node: node, Seq: seq, Time: t0.Add(time.Duration(seq) * 30 * time.Second)}
		for c := 0; c < comps; c++ {
			cpu := time.Duration(seq) * time.Duration(c+1) * 10 * time.Millisecond
			lat := time.Duration(seq) * time.Duration(c+1) * 15 * time.Millisecond
			r.Samples = append(r.Samples, core.ComponentSample{
				Component:      names[c],
				Size:           int64(10000*(c+1)) + 512*seq,
				SizeOK:         true,
				Usage:          seq * int64(100+c),
				CPUSeconds:     cpu.Seconds(),
				Threads:        int64(2 + c%3),
				Handles:        int64(1 + c%2),
				LatencySeconds: lat.Seconds(),
				Delta:          64 * seq,
			})
		}
		out = append(out, r)
	}
	return out
}

// failingConn writes successfully until told to fail.
type failingConn struct {
	discardConn
	fail bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.fail {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

// TestBinaryWireFailStopsAfterWriteError pins the codec's loss
// discipline: a lost frame desynchronises the delta/XOR chains, so after
// one failed write the wire must refuse every further publish (the owner
// reconnects with fresh codec state) instead of silently shipping
// undecodable-as-intended rounds.
func TestBinaryWireFailStopsAfterWriteError(t *testing.T) {
	c := &failingConn{}
	w := NewBinaryWire(c)
	gen := newRoundGen("node1")
	if err := w.Publish(gen.next()); err != nil {
		t.Fatalf("healthy publish failed: %v", err)
	}
	c.fail = true
	if err := w.Publish(gen.next()); err == nil {
		t.Fatal("failed write not surfaced")
	}
	c.fail = false
	if err := w.Publish(gen.next()); err == nil {
		t.Fatal("wire did not latch the broken state after a lost frame")
	}
}

func TestBinaryDecoderRejectsCorruption(t *testing.T) {
	enc := NewBinaryEncoder()
	frame := enc.AppendRound(nil, sampleRounds()[0])
	payloadStart := 4 // skip magic
	n, w := binary.Uvarint(frame[payloadStart:])
	payload := frame[payloadStart+w : payloadStart+w+int(n)]

	dec := NewBinaryDecoder()
	if _, err := dec.DecodeFrame(payload[:len(payload)/2]); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	// A dangling string reference: id 200 was never defined.
	bad := append([]byte{frameBatch}, binary.AppendUvarint(nil, 1)...)
	bad = append(bad, binary.AppendUvarint(nil, 201)...)
	if _, err := NewBinaryDecoder().DecodeFrame(bad); err == nil {
		t.Fatal("dangling string reference decoded without error")
	}
	// A non-minimal varint: the round count 1 padded to two bytes (0x81
	// 0x00). Outside input has exactly one valid encoding per value.
	padded := append([]byte{frameBatch, 0x81, 0x00}, payload[2:]...)
	if _, err := NewBinaryDecoder().DecodeFrame(padded); err == nil {
		t.Fatal("non-minimal varint decoded without error")
	}
	// Trailing garbage after a valid frame.
	full := append(append([]byte(nil), payload...), 0xFF)
	if _, err := NewBinaryDecoder().DecodeFrame(full); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
	// A frame whose type byte names no known frame kind.
	if _, err := NewBinaryDecoder().DecodeFrame(append([]byte{0x7F}, payload[1:]...)); err == nil {
		t.Fatal("unknown frame type decoded without error")
	}
	// Corrupt BATCH counts: empty payload, missing count, zero rounds,
	// and a count past the frame size.
	if err := NewBinaryDecoder().DecodeBatch(nil, discardRound); err == nil {
		t.Fatal("empty frame decoded without error")
	}
	if err := NewBinaryDecoder().DecodeBatch([]byte{frameBatch}, discardRound); err == nil {
		t.Fatal("countless batch decoded without error")
	}
	if err := NewBinaryDecoder().DecodeBatch([]byte{frameBatch, 0x00}, discardRound); err == nil {
		t.Fatal("zero-round batch decoded without error")
	}
	huge := append([]byte{frameBatch}, binary.AppendUvarint(nil, 1<<20)...)
	huge = append(huge, payload[2:]...)
	if err := NewBinaryDecoder().DecodeBatch(huge, discardRound); err == nil {
		t.Fatal("oversized batch count decoded without error")
	}
	// Names take binc's 4 KiB string bound: 4096 bytes decode, 4097 do
	// not.
	for _, n := range []int{4096, 4097} {
		r := sampleRounds()[0]
		r.Samples = append([]core.ComponentSample(nil), r.Samples...)
		r.Samples[0].Component = strings.Repeat("x", n)
		_, err := NewBinaryDecoder().DecodeFrame(framePayload(t, NewBinaryEncoder().AppendRound(nil, r)[4:]))
		if (err == nil) != (n <= 4096) {
			t.Fatalf("%d-byte name: err = %v", n, err)
		}
	}
	// A multi-round batch must be rejected by the single-round shorthand.
	enc2 := NewBinaryEncoder()
	rounds := sampleRounds()
	enc2.BufferRound(rounds[0])
	enc2.BufferRound(rounds[2])
	batch := enc2.FlushFrame(nil)
	n, w = binary.Uvarint(batch[payloadStart:])
	if _, err := NewBinaryDecoder().DecodeFrame(batch[payloadStart+w : payloadStart+w+int(n)]); err == nil {
		t.Fatal("DecodeFrame accepted a multi-round batch")
	}
}

func discardRound(Round) error { return nil }

// framePayload strips one frame's length prefix, failing unless it
// covers exactly the rest of frame.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	n, w := binary.Uvarint(frame)
	if w <= 0 || n != uint64(len(frame)-w) {
		t.Fatalf("bad frame length prefix %d for %d bytes", n, len(frame)-w)
	}
	return frame[w:]
}

// TestBinaryDecoderBoundsDictionary holds what one connection can make
// the decoder keep: a stream may intern maxWireNames names, and the
// first sighting past them is refused before it is interned, so neither
// the dictionary nor the delta state keyed by it grows without bound.
func TestBinaryDecoderBoundsDictionary(t *testing.T) {
	round := func(seq int64, first, n int) Round {
		r := Round{Node: "node1", Seq: seq, Time: time.Unix(0, seq)}
		for i := first; i < first+n; i++ {
			r.Samples = append(r.Samples, core.ComponentSample{Component: strconv.Itoa(i)})
		}
		return r
	}
	enc, dec := NewBinaryEncoder(), NewBinaryDecoder()
	// The node's name and maxWireNames-1 components fill the dictionary.
	full := framePayload(t, enc.AppendRound(nil, round(1, 0, maxWireNames-1))[4:])
	if _, err := dec.DecodeFrame(full); err != nil {
		t.Fatalf("a stream of exactly %d names: %v", maxWireNames, err)
	}
	// Known names still decode; one more new name does not.
	if _, err := dec.DecodeFrame(framePayload(t, enc.AppendRound(nil, round(2, 0, 3)))); err != nil {
		t.Fatalf("interned names after the dictionary filled: %v", err)
	}
	_, err := dec.DecodeFrame(framePayload(t, enc.AppendRound(nil, round(3, maxWireNames-1, 1))))
	if want := fmt.Sprintf("cluster: stream interns more than %d names", maxWireNames); err == nil || err.Error() != want {
		t.Fatalf("name %d: err = %v, want %q", maxWireNames+1, err, want)
	}
}

// TestBinaryCodecBatchRoundTrip drives the BATCH path across flush sizes
// that tile the stream unevenly: every grouping must reproduce the same
// round sequence, because batching only repackages frames — the
// interning and delta chains run over the stream, not the frame.
func TestBinaryCodecBatchRoundTrip(t *testing.T) {
	rounds := append(sampleRounds(), manyRounds("node3", 10, 5)...)
	for _, k := range []int{2, 3, len(rounds)} {
		enc := NewBinaryEncoder()
		var stream []byte
		for i, r := range rounds {
			enc.BufferRound(r)
			if (i+1)%k == 0 {
				stream = enc.FlushFrame(stream)
			}
		}
		stream = enc.FlushFrame(stream)
		if enc.PendingRounds() != 0 {
			t.Fatalf("k=%d: %d rounds left buffered after flush", k, enc.PendingRounds())
		}
		if extra := enc.FlushFrame(nil); len(extra) != 0 {
			t.Fatalf("k=%d: empty flush produced %d bytes", k, len(extra))
		}
		got := decodeStream(t, stream)
		if len(got) != len(rounds) {
			t.Fatalf("k=%d: decoded %d rounds, want %d", k, len(got), len(rounds))
		}
		for i, want := range rounds {
			g := got[i]
			if g.Node != want.Node || g.Seq != want.Seq || !g.Time.Equal(want.Time) {
				t.Fatalf("k=%d round %d header mismatch: %+v", k, i, g)
			}
			for j, ws := range want.Samples {
				if g.Samples[j] != ws {
					t.Fatalf("k=%d round %d sample %d: %+v, want %+v", k, i, j, g.Samples[j], ws)
				}
			}
		}
	}
}

// TestBinaryWireBatchFlushPolicy pins the transport-side flush triggers:
// count, explicit Flush, deadline, and Close — and that a partial batch
// never hits the wire before one of them fires.
func TestBinaryWireBatchFlushPolicy(t *testing.T) {
	c := &countingConn{}
	w := NewBinaryWire(c)
	if err := w.SetBatch(3, 0); err != nil {
		t.Fatal(err)
	}
	gen := newRoundGen("node1")
	publish := func() {
		t.Helper()
		if err := w.Publish(gen.next()); err != nil {
			t.Fatal(err)
		}
	}
	publish()
	publish()
	if got := c.writes.Load(); got != 0 {
		t.Fatalf("partial batch hit the wire: %d writes", got)
	}
	publish() // third round: count trigger
	if got := c.writes.Load(); got != 1 {
		t.Fatalf("count flush: %d writes, want 1", got)
	}
	publish()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.writes.Load(); got != 2 {
		t.Fatalf("explicit flush: %d writes, want 2", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.writes.Load(); got != 2 {
		t.Fatalf("empty flush wrote a frame: %d writes", got)
	}

	// Deadline trigger: one buffered round must ship without further
	// publishes once the delay elapses.
	if err := w.SetBatch(8, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	publish()
	deadline := time.Now().Add(5 * time.Second)
	for c.writes.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("deadline flush never fired: %d writes", c.writes.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Close ships the remainder.
	if err := w.SetBatch(8, 0); err != nil {
		t.Fatal(err)
	}
	publish()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.writes.Load(); got != 4 {
		t.Fatalf("close flush: %d writes, want 4", got)
	}
}

// TestBinaryWireBatchReducesOverhead pins the acceptance bar for the
// BATCH frame: at fan-in flush sizes, batching must cut both the frames
// and the bytes a round costs on the wire versus flush-every-round.
func TestBinaryWireBatchReducesOverhead(t *testing.T) {
	const rounds = 64
	run := func(batch int) (wireBytes, frames int64) {
		c := &countingConn{}
		w := NewBinaryWire(c)
		if batch > 1 {
			if err := w.SetBatch(batch, 0); err != nil {
				t.Fatal(err)
			}
		}
		gen := newRoundGen("node1")
		for i := 0; i < rounds; i++ {
			if err := w.Publish(gen.next()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return c.n.Load(), c.writes.Load()
	}
	plainBytes, plainFrames := run(1)
	batchBytes, batchFrames := run(8)
	if batchFrames != plainFrames/8 {
		t.Fatalf("batch=8 shipped %d frames for %d rounds (unbatched: %d)", batchFrames, rounds, plainFrames)
	}
	if batchBytes >= plainBytes {
		t.Fatalf("batching did not reduce bytes: %d vs %d", batchBytes, plainBytes)
	}
	t.Logf("%d rounds: unbatched %d bytes / %d frames, batch=8 %d bytes / %d frames",
		rounds, plainBytes, plainFrames, batchBytes, batchFrames)
}

// TestWireSteadyStateAllocs holds the wire's allocation contract in the
// tier-1 suite: once names are interned and buffers have grown, shipping
// a round through BinaryWire.Publish — one frame per round, or eight
// rounds per BATCH frame — and decoding a BATCH frame with DecodeBatch
// allocate nothing.
func TestWireSteadyStateAllocs(t *testing.T) {
	for _, batch := range []int{1, 8} {
		w := NewBinaryWire(&countingConn{})
		if err := w.SetBatch(batch, 0); err != nil {
			t.Fatal(err)
		}
		gen := newRoundGen("node1")
		publish := func() {
			if err := w.Publish(gen.next()); err != nil {
				t.Fatal(err)
			}
		}
		for gen.r.Seq < 32 {
			publish()
		}
		if allocs := testing.AllocsPerRun(200, publish); allocs != 0 {
			t.Errorf("BinaryWire.Publish at batch %d: %v allocs per round, want 0", batch, allocs)
		}
	}

	const frames, perFrame = 256, 8
	enc := NewBinaryEncoder()
	gen := newRoundGen("node1")
	var payloads [][]byte
	for f := 0; f < frames; f++ {
		for i := 0; i < perFrame; i++ {
			enc.BufferRound(gen.next())
		}
		frame := enc.FlushFrame(nil)
		if f == 0 {
			frame = frame[4:] // the stream header
		}
		n, w := binary.Uvarint(frame)
		payloads = append(payloads, frame[w:w+int(n)])
	}
	dec := NewBinaryDecoder()
	next := 0
	decode := func() {
		if err := dec.DecodeBatch(payloads[next], discardRound); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 16 { // names interned, samples buffer grown
		decode()
	}
	if allocs := testing.AllocsPerRun(frames-next-1, decode); allocs != 0 {
		t.Errorf("BinaryDecoder.DecodeBatch: %v allocs per %d-round frame, want 0", allocs, perFrame)
	}
}
