package binc

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// record is a small format exercising every Codec field kind, a
// key-sorted sequence and a decode-side check.
type record struct {
	b    byte
	ok   bool
	u    uint64
	v    int64
	n    int
	f    float64
	s    string
	at   time.Time
	vals map[string]int64
}

func (r *record) codec(c *Codec) error {
	c.Byte(&r.b)
	c.Bool(&r.ok)
	c.Uvarint(&r.u)
	c.Varint(&r.v)
	c.Count(&r.n, 100)
	c.Check(r.n%2 == 0, "odd count %d", r.n)
	c.Float(&r.f)
	c.String(&r.s)
	c.Time(&r.at)
	keys := make([]string, 0, len(r.vals))
	for k := range r.vals {
		keys = append(keys, k)
	}
	for ks := c.Sorted(keys, 16); ks.Next(); {
		v := r.vals[ks.Key()]
		c.Varint(&v)
		c.Check(ks.InOrder(), "keys not sorted (%q after %q)", ks.Key(), ks.Prev())
		if c.Decoding() {
			r.vals[ks.Key()] = v
		}
	}
	return c.Err()
}

func encodeRecord(r *record) []byte {
	c := NewEncoder(nil)
	r.codec(c)
	return c.Buffer()
}

func decodeRecord(data []byte) (*record, error) {
	r := &record{vals: map[string]int64{}}
	c := NewDecoder(data)
	if err := r.codec(c); err != nil {
		return nil, err
	}
	return r, c.Done()
}

func TestCodecRoundTrip(t *testing.T) {
	in := &record{
		b: 7, ok: true, u: 1 << 40, v: -12345, n: 42, f: math.Copysign(0, -1), s: "component.Ünïcode",
		at:   time.Date(2010, 1, 1, 0, 0, 30, 5, time.UTC),
		vals: map[string]int64{"c": 3, "a": -1, "b": 2},
	}
	data := encodeRecord(in)
	out, err := decodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.b != in.b || out.ok != in.ok || out.u != in.u || out.v != in.v || out.n != in.n ||
		math.Float64bits(out.f) != math.Float64bits(in.f) || out.s != in.s || !out.at.Equal(in.at) ||
		fmt.Sprint(out.vals) != fmt.Sprint(in.vals) {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	if out.at.Location() != time.UTC {
		t.Error("a decoded instant must be UTC")
	}
	// The encoding does not depend on map order: keys are written sorted.
	if !bytes.Equal(encodeRecord(out), data) {
		t.Fatal("re-encoding is not canonical")
	}
	if _, err := decodeRecord(append(data, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodeRecord(data[:len(data)-1]); err == nil {
		t.Error("truncation accepted")
	}
}

// TestCodecCheck pins Check: an encoder checks nothing, a decoder fails
// with the first failed check in field order, and a parse error that
// comes first wins over any later check.
func TestCodecCheck(t *testing.T) {
	odd := &record{n: 3, vals: map[string]int64{}}
	data := encodeRecord(odd)
	if _, err := decodeRecord(data); err == nil || err.Error() != "odd count 3" {
		t.Fatalf("odd count: err = %v", err)
	}
	// Cut ahead of the count: the parse error wins.
	if _, err := decodeRecord(data[:2]); err == nil || !strings.HasPrefix(err.Error(), "binc: ") {
		t.Fatalf("truncated before a failing check: err = %v", err)
	}
}

// TestCodecKeysOrder feeds hand-built sequences whose keys are out of
// order or repeated: the decoder must refuse each at its check.
func TestCodecKeysOrder(t *testing.T) {
	header := encodeRecord(&record{})
	header = header[:len(header)-1] // drop the empty sequence's count
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}, {"", ""}} {
		data := AppendUvarint(append([]byte(nil), header...), uint64(len(keys)))
		for _, k := range keys {
			data = AppendVarint(AppendString(data, k), 1)
		}
		want := fmt.Sprintf("keys not sorted (%q after %q)", keys[1], keys[0])
		if _, err := decodeRecord(data); err == nil || err.Error() != want {
			t.Errorf("keys %q: err = %v, want %q", keys, err, want)
		}
	}
	// An empty first key is in order; the format adds its own rule if it
	// wants names.
	data := AppendVarint(AppendString(AppendUvarint(append([]byte(nil), header...), 1), ""), 1)
	if _, err := decodeRecord(data); err != nil {
		t.Fatalf("an empty first key: %v", err)
	}
}

// TestCodecResetAndBytes pins the wire's two Codec additions: a codec
// held by value and reset onto each frame codes exactly what a fresh one
// would, and Bytes hands a decoder a run that aliases its input and is
// refused when it runs past the input's end.
func TestCodecResetAndBytes(t *testing.T) {
	var c Codec
	var frames [][]byte
	for i, blob := range [][]byte{[]byte("first"), nil, []byte("third")} {
		gen := uint64(i)
		c.ResetEncoder(nil)
		c.Uvarint(&gen)
		c.Bytes(&blob)
		frames = append(frames, c.Buffer())
		fresh := NewEncoder(nil)
		fresh.Uvarint(&gen)
		fresh.Bytes(&blob)
		if !bytes.Equal(c.Buffer(), fresh.Buffer()) {
			t.Fatalf("frame %d: reset codec wrote %x, fresh codec %x", i, c.Buffer(), fresh.Buffer())
		}
	}
	for i, frame := range frames {
		var gen uint64
		var blob []byte
		c.ResetDecoder(frame)
		c.Uvarint(&gen)
		c.Bytes(&blob)
		if err := c.Done(); err != nil || gen != uint64(i) {
			t.Fatalf("frame %d: gen %d, err %v", i, gen, err)
		}
		if len(blob) > 0 && &blob[0] != &frame[len(frame)-len(blob)] {
			t.Fatalf("frame %d: decoded run does not alias the input", i)
		}
	}
	var blob []byte
	c.ResetDecoder([]byte{6, 'x', 'y'})
	c.Bytes(&blob)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "count 6 exceeds bound") {
		t.Fatalf("a run past the input's end: err = %v", err)
	}
}
