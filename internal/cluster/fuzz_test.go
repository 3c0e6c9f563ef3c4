package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// fuzzReader derives structured values from the fuzzer's byte stream,
// yielding zeros once exhausted so every input maps to a valid (possibly
// trivial) round sequence.
type fuzzReader struct {
	b []byte
	i int
}

func (f *fuzzReader) byte() byte {
	if f.i >= len(f.b) {
		return 0
	}
	v := f.b[f.i]
	f.i++
	return v
}

func (f *fuzzReader) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(f.byte())
	}
	return v
}

func (f *fuzzReader) name(prefix string) string {
	n := int(f.byte() % 8)
	out := make([]byte, n)
	for k := range out {
		out[k] = f.byte()
	}
	return prefix + string(out)
}

// roundsFromFuzz builds an arbitrary round sequence from fuzz bytes: up
// to 16 rounds over up to 4 nodes, each with up to 8 samples of arbitrary
// names and values. Sampling instants are arbitrary int64 nanoseconds —
// the codec's documented domain.
func roundsFromFuzz(data []byte) []Round {
	f := &fuzzReader{b: data}
	nRounds := int(f.byte()%16) + 1
	out := make([]Round, 0, nRounds)
	for i := 0; i < nRounds; i++ {
		r := Round{
			Node: f.name("n"),
			Seq:  int64(f.u64()),
			Time: time.Unix(0, int64(f.u64())),
		}
		nSamples := int(f.byte() % 8)
		for j := 0; j < nSamples; j++ {
			r.Samples = append(r.Samples, core.ComponentSample{
				Component:  f.name("c"),
				Size:       int64(f.u64()),
				SizeOK:     f.byte()%2 == 0,
				Usage:      int64(f.u64()),
				CPUSeconds: math.Float64frombits(f.u64()),
				Threads:    int64(f.u64()),
				Delta:      int64(f.u64()),
			})
		}
		out = append(out, r)
	}
	return out
}

// sameRound fails the test unless got reproduces want exactly (field for
// field, float bits included).
func sameRound(t *testing.T, tag string, i int, got, want Round) {
	t.Helper()
	if got.Node != want.Node || got.Seq != want.Seq {
		t.Fatalf("%s round %d: header %q/%d, want %q/%d", tag, i, got.Node, got.Seq, want.Node, want.Seq)
	}
	if got.Time.UnixNano() != want.Time.UnixNano() {
		t.Fatalf("%s round %d: time %d, want %d", tag, i, got.Time.UnixNano(), want.Time.UnixNano())
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s round %d: %d samples, want %d", tag, i, len(got.Samples), len(want.Samples))
	}
	for j, ws := range want.Samples {
		gs := got.Samples[j]
		if gs.Component != ws.Component || gs.Size != ws.Size || gs.SizeOK != ws.SizeOK ||
			gs.Usage != ws.Usage || gs.Threads != ws.Threads || gs.Delta != ws.Delta ||
			gs.Handles != ws.Handles ||
			math.Float64bits(gs.LatencySeconds) != math.Float64bits(ws.LatencySeconds) ||
			math.Float64bits(gs.CPUSeconds) != math.Float64bits(ws.CPUSeconds) {
			t.Fatalf("%s round %d sample %d: %+v, want %+v", tag, i, j, gs, ws)
		}
	}
}

// FuzzBinaryCodec drives the binary codec with arbitrary round sequences:
// every encode→decode round trip must reproduce the rounds exactly
// (field for field, CPU bits included), through the stream's full
// interning and delta state — both one frame per round and regrouped
// into v5 BATCH frames of every shape the flush policy can produce.
func FuzzBinaryCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	// A seed resembling real traffic: same node, advancing seq/time.
	seed := []byte{4}
	for i := 0; i < 4; i++ {
		seed = append(seed, 2, 'n', '1')
		seed = append(seed, 0, 0, 0, 0, 0, 0, 0, byte(i+1)) // seq
		seed = append(seed, 0, 0, 0, 30, 0, 0, 0, byte(i))  // time
		seed = append(seed, 2)                              // two samples
		for j := 0; j < 2; j++ {
			seed = append(seed, 1, byte('a'+j))
			seed = append(seed, 0, 0, 0, 0, 0, 1, 0, byte(i)) // size
			seed = append(seed, 0)                            // SizeOK
			seed = append(seed, 0, 0, 0, 0, 0, 0, 1, byte(i)) // usage
			seed = append(seed, 63, 200, 0, 0, 0, 0, 0, 0)    // cpu bits
			seed = append(seed, 0, 0, 0, 0, 0, 0, 0, 3)       // threads
			seed = append(seed, 0, 0, 0, 0, 0, 0, 0, 0)       // delta
		}
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		rounds := roundsFromFuzz(data)
		enc := NewBinaryEncoder()
		dec := NewBinaryDecoder()
		var stream []byte
		for _, r := range rounds {
			stream = enc.AppendRound(stream, r)
		}
		if len(rounds) > 0 && [4]byte(stream[:4]) != wireMagic {
			t.Fatal("stream does not start with the wire magic")
		}
		rest := stream
		if len(rounds) > 0 {
			rest = rest[4:]
		}
		for i, want := range rounds {
			n, w := binary.Uvarint(rest)
			if w <= 0 || n > uint64(len(rest)-w) {
				t.Fatalf("round %d: bad frame length", i)
			}
			got, err := dec.DecodeFrame(rest[w : w+int(n)])
			if err != nil {
				t.Fatalf("round %d: decode: %v", i, err)
			}
			rest = rest[w+int(n):]
			sameRound(t, "frame", i, got, want)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing stream bytes", len(rest))
		}

		// The same sequence regrouped into BATCH frames — a fuzz-derived
		// flush size, pairs, and one frame for the whole run — must decode
		// to the identical rounds: batching repackages frames, it never
		// touches the stream-level interning or delta chains.
		kFuzz := 2
		if len(data) > 0 {
			kFuzz = int(data[len(data)/2]%5) + 1
		}
		for _, k := range []int{kFuzz, 3, len(rounds)} {
			benc := NewBinaryEncoder()
			var stream []byte
			for i, r := range rounds {
				benc.BufferRound(r)
				if (i+1)%k == 0 {
					stream = benc.FlushFrame(stream)
				}
			}
			stream = benc.FlushFrame(stream)
			bdec := NewBinaryDecoder()
			brest := stream[4:]
			idx := 0
			for len(brest) > 0 {
				n, w := binary.Uvarint(brest)
				if w <= 0 || n > uint64(len(brest)-w) {
					t.Fatalf("batch k=%d: bad frame length at round %d", k, idx)
				}
				err := bdec.DecodeBatch(brest[w:w+int(n)], func(got Round) error {
					sameRound(t, "batch", idx, got, rounds[idx])
					idx++
					return nil
				})
				if err != nil {
					t.Fatalf("batch k=%d: decode: %v", k, err)
				}
				brest = brest[w+int(n):]
			}
			if idx != len(rounds) {
				t.Fatalf("batch k=%d: decoded %d rounds, want %d", k, idx, len(rounds))
			}
		}
	})
}

// robustnessSeeds are FuzzBinaryDecoderRobustness's built-in inputs,
// each one frame payload (sans stream header and length prefix): valid
// single-round and multi-round BATCH payloads, corrupt round counts
// (zero rounds; a count far past the frame size), rounds cut short, a
// dangling reference, and CONTROL and CONTROL-ACK payloads — valid, of
// an unknown kind, and cut short. The round decoders must reject the foreign frame types
// cleanly, and the control decoders must survive round payloads just
// the same.
func robustnessSeeds() [][]byte {
	payload := func(frame []byte) []byte {
		_, w := binary.Uvarint(frame)
		return frame[w:]
	}
	enc := NewBinaryEncoder()
	round := payload(enc.AppendRound(nil, Round{Node: "n", Seq: 1, Time: time.Unix(0, 0), Samples: []core.ComponentSample{{Component: "c", Usage: 1}}})[4:])
	benc := NewBinaryEncoder()
	for seq := int64(1); seq <= 3; seq++ {
		benc.BufferRound(Round{Node: "n", Seq: seq, Time: time.Unix(0, seq), Samples: []core.ComponentSample{{Component: "c", Usage: seq}}})
	}
	batch := payload(benc.FlushFrame(nil)[4:])
	ctl := payload(AppendControlFrame(nil, ControlCommand{Seq: 9, Kind: ControlRejuvenate, Node: "node2", Component: "home"}))
	ack := payload(AppendControlAckFrame(nil, ControlAck{Seq: 9, Kind: ControlRejuvenate, OK: true, Freed: 4096}))
	withKind := func(p []byte, kind byte) []byte { return append([]byte{p[0], kind}, p[2:]...) }
	return [][]byte{
		round,
		batch,
		append([]byte{frameBatch, 0x00}, round[2:]...),
		append([]byte{frameBatch, 0xFF, 0xFF, 0x03}, round[2:]...),
		round[:len(round)-1],
		batch[:len(batch)/2],
		{0x00, 0x01, 0x61, 0x02, 0x02, 0x00},
		ctl,
		ack,
		withKind(ctl, 9),
		withKind(ack, 0),
		ctl[:len(ctl)-1],
		ack[:len(ack)-1],
	}
}

// controlSeeds are FuzzControlCodec's built-in inputs.
func controlSeeds() [][]byte {
	return [][]byte{
		{},
		AppendControlFrame(nil, ControlCommand{Seq: 7, Kind: ControlRejuvenate, Node: "node2", Component: "home"}),
		AppendControlAckFrame(nil, ControlAck{Seq: 7, Kind: ControlRejuvenate, OK: true, Freed: 4096}),
	}
}

// FuzzBinaryDecoderRobustness throws arbitrary bytes at the frame
// decoder: it must reject or accept them without panicking, whatever the
// input (the serving loop turns any error into a dropped connection).
func FuzzBinaryDecoderRobustness(f *testing.F) {
	for _, seed := range robustnessSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBinaryDecoder()
		_, _ = dec.DecodeFrame(data)
		// Feeding a second arbitrary frame exercises carried stream state,
		// and the batch entry point must hold up on the same bytes.
		_, _ = dec.DecodeFrame(data)
		_ = dec.DecodeBatch(data, func(Round) error { return nil })
		// The stateless control decoders share the wire: same robustness bar.
		_, _ = DecodeControlCommand(data)
		_, _ = DecodeControlAck(data)
	})
}

// FuzzControlCodec round-trips arbitrary control commands and acks
// through the v5 CONTROL/CONTROL-ACK frames: whatever the field values,
// encode→decode must reproduce them exactly, and the length prefix must
// cover the payload precisely.
func FuzzControlCodec(f *testing.F) {
	for _, seed := range controlSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzReader{b: data}
		cmd := ControlCommand{
			Seq:       fz.u64(),
			Kind:      ControlKind(fz.byte()%3 + 1),
			Node:      fz.name("n"),
			Component: fz.name("c"),
			Weight:    int64(fz.u64()),
		}
		frame := AppendControlFrame(nil, cmd)
		n, w := binary.Uvarint(frame)
		if w <= 0 || int(n) != len(frame)-w {
			t.Fatalf("command length prefix %d does not cover the %d payload bytes", n, len(frame)-w)
		}
		got, err := DecodeControlCommand(frame[w:])
		if err != nil {
			t.Fatalf("decode command: %v", err)
		}
		if got != cmd {
			t.Fatalf("command round trip: %+v, want %+v", got, cmd)
		}

		ack := ControlAck{
			Seq:   fz.u64(),
			Kind:  ControlKind(fz.byte()%3 + 1),
			OK:    fz.byte()%2 == 0,
			Freed: int64(fz.u64()),
			Err:   fz.name("e"),
		}
		aframe := AppendControlAckFrame(nil, ack)
		an, aw := binary.Uvarint(aframe)
		if aw <= 0 || int(an) != len(aframe)-aw {
			t.Fatalf("ack length prefix %d does not cover the %d payload bytes", an, len(aframe)-aw)
		}
		gotAck, err := DecodeControlAck(aframe[aw:])
		if err != nil {
			t.Fatalf("decode ack: %v", err)
		}
		if gotAck != ack {
			t.Fatalf("ack round trip: %+v, want %+v", gotAck, ack)
		}
	})
}

// decodeOutcome runs one input through every wire decoder the way
// FuzzBinaryDecoderRobustness does — DecodeFrame twice on one decoder
// (the second carries the first's stream state), DecodeBatch on the
// same decoder, then the two stateless control decoders — and renders
// what each did: what it accepted, or its error text.
func decodeOutcome(data []byte) [5]string {
	show := func(v any, err error) string {
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(v)
	}
	frame := func(r Round, err error) string {
		return show(fmt.Sprintf("%s/%d/%d/%d", r.Node, r.Seq, r.Time.UnixNano(), len(r.Samples)), err)
	}
	dec := NewBinaryDecoder()
	first := frame(dec.DecodeFrame(data))
	second := frame(dec.DecodeFrame(data))
	rounds := 0
	err := dec.DecodeBatch(data, func(Round) error { rounds++; return nil })
	return [5]string{
		first,
		second,
		show(fmt.Sprintf("%d rounds", rounds), err),
		show(DecodeControlCommand(data)),
		show(DecodeControlAck(data)),
	}
}

// TestWireFuzzSeedOutcomes pins what the wire codec does with every
// committed fuzz seed: the FNV-64 of the stream FuzzBinaryCodec's body
// encodes from each of its seeds (one frame per round, then the same
// rounds as one BATCH frame), and the exact outcome of every decoder on
// each FuzzBinaryDecoderRobustness seed (committed and built in) and
// each FuzzControlCodec seed — accepted, or where and why it was
// refused. A codec that wrote or read a field, or ran a check, at
// another point of the sequence would hash or stop differently.
func TestWireFuzzSeedOutcomes(t *testing.T) {
	for _, tc := range []struct {
		seed string
		want uint64
	}{
		{"seed-adversarial", 0x1d15c29904e9eb4a},
		{"seed-cpu-quantise-fallback", 0x6b74e40b39c338f6},
		{"seed-steady-stream", 0x395bacc0b14a2bf2},
	} {
		rounds := roundsFromFuzz(readFuzzSeed(t, "testdata/fuzz/FuzzBinaryCodec/"+tc.seed))
		enc, benc := NewBinaryEncoder(), NewBinaryEncoder()
		var stream []byte
		for _, r := range rounds {
			stream = enc.AppendRound(stream, r)
			benc.BufferRound(r)
		}
		stream = benc.FlushFrame(stream)
		h := fnv.New64a()
		h.Write(stream)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("FuzzBinaryCodec seed %s: stream FNV-64 %#x, want %#x", tc.seed, got, tc.want)
		}
	}

	type input struct {
		name string
		data []byte
	}
	var inputs []input
	for _, seed := range []string{"seed-dangling-ref", "seed-truncated"} {
		inputs = append(inputs, input{seed, readFuzzSeed(t, "testdata/fuzz/FuzzBinaryDecoderRobustness/"+seed)})
	}
	for i, data := range robustnessSeeds() {
		inputs = append(inputs, input{fmt.Sprintf("robustness %d", i), data})
	}
	for i, data := range controlSeeds() {
		inputs = append(inputs, input{fmt.Sprintf("control %d", i), data})
	}
	// Each outcome: DecodeFrame, DecodeFrame again, DecodeBatch,
	// DecodeControlCommand, DecodeControlAck.
	want := map[string][5]string{
		"seed-dangling-ref": {
			"cluster: frame type 201 is not a BATCH frame",
			"cluster: frame type 201 is not a BATCH frame",
			"cluster: frame type 201 is not a BATCH frame",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"seed-truncated": {
			"cluster: dangling string reference 96",
			"cluster: dangling string reference 96",
			"cluster: dangling string reference 96",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 0": {
			"n/1/0/1",
			"n/1/0/1",
			"1 rounds",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 1": {
			"cluster: BATCH frame carries several rounds; decode with DecodeBatch",
			"cluster: BATCH frame carries several rounds; decode with DecodeBatch",
			"3 rounds",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 2": {
			"cluster: BATCH round count 0 is corrupt for a 19-byte frame",
			"cluster: BATCH round count 0 is corrupt for a 19-byte frame",
			"cluster: BATCH round count 0 is corrupt for a 19-byte frame",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 3": {
			"cluster: BATCH round count 65535 is corrupt for a 21-byte frame",
			"cluster: BATCH round count 65535 is corrupt for a 21-byte frame",
			"cluster: BATCH round count 65535 is corrupt for a 21-byte frame",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 4": {
			"binc: bad uvarint at offset 17",
			"binc: bad uvarint at offset 17",
			"binc: bad uvarint at offset 17",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 5": {
			"binc: bad uvarint at offset 21",
			"binc: bad uvarint at offset 21",
			"binc: bad uvarint at offset 21",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 6": {
			"cluster: dangling string reference 96",
			"cluster: dangling string reference 96",
			"cluster: dangling string reference 96",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"robustness 7": {
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: frame type 1 is not a BATCH frame",
			"{9 rejuvenate node2 home 0}",
			"cluster: not an ACK frame",
		},
		"robustness 8": {
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: not a CONTROL frame",
			"{9 rejuvenate true 4096 }",
		},
		"robustness 9": {
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: unknown control kind 9",
			"cluster: not an ACK frame",
		},
		"robustness 10": {
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: not a CONTROL frame",
			"cluster: unknown control kind 0",
		},
		"robustness 11": {
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: frame type 1 is not a BATCH frame",
			"cluster: frame type 1 is not a BATCH frame",
			"binc: bad uvarint at offset 13",
			"cluster: not an ACK frame",
		},
		"robustness 12": {
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: frame type 2 is not a BATCH frame",
			"cluster: not a CONTROL frame",
			"binc: bad uvarint at offset 5",
		},
		"control 0": {
			"cluster: empty frame",
			"cluster: empty frame",
			"cluster: empty frame",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"control 1": {
			"cluster: frame type 15 is not a BATCH frame",
			"cluster: frame type 15 is not a BATCH frame",
			"cluster: frame type 15 is not a BATCH frame",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
		"control 2": {
			"cluster: frame type 7 is not a BATCH frame",
			"cluster: frame type 7 is not a BATCH frame",
			"cluster: frame type 7 is not a BATCH frame",
			"cluster: not a CONTROL frame",
			"cluster: not an ACK frame",
		},
	}
	if len(inputs) != len(want) {
		t.Errorf("%d inputs, %d pinned outcomes", len(inputs), len(want))
	}
	for _, in := range inputs {
		if got := decodeOutcome(in.data); got != want[in.name] {
			t.Errorf("%s:\n got %q\nwant %q", in.name, got, want[in.name])
		}
	}
}
