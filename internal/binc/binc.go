// Package binc holds the low-level binary codec shared by the cluster
// wire frames and the durable-state snapshots (detect, cluster, rejuv):
// append-style writers over varints/floats/strings and a bounds-checked
// sticky-error Parser — the repo's one varint implementation. It lives
// below detect in the import graph, because detect cannot import
// cluster.
//
// Encoding conventions, shared by every snapshot format built on top:
//
//   - unsigned counts and sizes are uvarints;
//   - signed integers (sequence numbers, epochs, UnixNano timestamps,
//     clock offsets) are zigzag varints;
//   - float64 values are the 8 raw IEEE-754 bits, little-endian, so a
//     snapshot/restore round trip is bit-exact (NaN payloads included);
//   - strings are uvarint length + raw bytes;
//   - booleans are one byte, 0 or 1 (any other value is a parse error);
//   - maps are serialised as a count followed by key-sorted entries, so
//     the encoding of a given state is canonical: snapshotting a
//     restored object yields byte-identical output.
//
// The Parser is sticky: the first failure latches and every subsequent
// read returns a zero value, so restore code can decode a whole struct
// linearly and check Err once. Length and count reads are capped by the
// caller (Count, String, Bytes), so a fuzzed or corrupt snapshot can
// never drive an allocation beyond the declared bound.
//
// A snapshot format or wire frame is written once, as a function over a
// Codec: the same call appends a field when encoding and parses it, with
// the Parser's bounds and sticky error, when decoding, so the field
// order is one decision in one place. A wire endpoint holds its Codec by
// value and resets it onto each frame (ResetEncoder, ResetDecoder), so
// coding a frame allocates nothing. A format's decode-side checks
// (Codec.Check) sit at the point of the field sequence where they apply
// and latch like a parse error. A map is coded as a canonical key-sorted
// sequence (Codec.Sorted): keys are sorted on write, and on read each
// must be strictly greater than the one before it (Keys.InOrder), so a
// map has exactly one encoding.
package binc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendUvarint appends u as a uvarint.
func AppendUvarint(dst []byte, u uint64) []byte {
	return binary.AppendUvarint(dst, u)
}

// AppendVarint appends v as a zigzag varint.
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendFloat appends the 8 raw IEEE-754 bits of f, little-endian.
func AppendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends a uvarint length followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length followed by the raw bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte, 1 for true and 0 for false.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Parser decodes a snapshot buffer with sticky-error semantics: after the
// first failure every read returns the zero value and Err reports the
// original failure. Not safe for concurrent use.
type Parser struct {
	b   []byte
	i   int
	err error
}

// NewParser returns a parser over b. The parser borrows b; Bytes results
// alias it.
func NewParser(b []byte) *Parser { return &Parser{b: b} }

// Err returns the first decode failure, nil while none has occurred.
func (p *Parser) Err() error { return p.err }

// Remaining returns the number of unconsumed bytes.
func (p *Parser) Remaining() int { return len(p.b) - p.i }

func (p *Parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("binc: "+format+" at offset %d", append(args, p.i)...)
	}
}

// Uvarint reads one uvarint. Non-minimal encodings (continuation-padded,
// e.g. 0x84 0x00 for 4 — exactly the multi-byte encodings whose last
// byte is zero) are rejected: every value has exactly one valid encoding,
// which is what makes snapshot formats canonical.
func (p *Parser) Uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	// One-byte values dominate (steady-state wire residuals, small
	// counts), and a single byte is minimal by construction.
	if p.i < len(p.b) && p.b[p.i] < 0x80 {
		p.i++
		return uint64(p.b[p.i-1])
	}
	v, n := binary.Uvarint(p.b[p.i:])
	if n <= 0 {
		p.fail("bad uvarint")
		return 0
	}
	if n > 1 && p.b[p.i+n-1] == 0 {
		p.fail("non-minimal uvarint")
		return 0
	}
	p.i += n
	return v
}

// Varint reads one zigzag varint — a uvarint carrying the sign in its
// low bit — rejecting non-minimal encodings like Uvarint.
func (p *Parser) Varint() int64 {
	u := p.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float reads one little-endian float64.
func (p *Parser) Float() float64 {
	if p.err != nil {
		return 0
	}
	if p.i+8 > len(p.b) {
		p.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.i:]))
	p.i += 8
	return v
}

// Byte reads one raw byte.
func (p *Parser) Byte() byte {
	if p.err != nil {
		return 0
	}
	if p.i >= len(p.b) {
		p.fail("truncated byte")
		return 0
	}
	v := p.b[p.i]
	p.i++
	return v
}

// Bool reads one boolean byte; values other than 0 and 1 are an error,
// so every state has exactly one valid encoding.
func (p *Parser) Bool() bool {
	v := p.Byte()
	if p.err != nil {
		return false
	}
	if v > 1 {
		p.fail("bad bool %d", v)
		return false
	}
	return v == 1
}

// Count reads a uvarint bounded by max, for element counts that size an
// allocation. A count above max fails the parse instead of allocating.
func (p *Parser) Count(max int) int {
	v := p.Uvarint()
	if p.err != nil {
		return 0
	}
	if v > uint64(max) {
		p.fail("count %d exceeds bound %d", v, max)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string of at most max bytes.
func (p *Parser) String(max int) string {
	return string(p.Bytes(max))
}

// Bytes reads a length-prefixed byte run of at most max bytes. The result
// aliases the parser's buffer.
func (p *Parser) Bytes(max int) []byte {
	n := p.Count(max)
	if p.err != nil {
		return nil
	}
	if p.i+n > len(p.b) {
		p.fail("truncated %d-byte run", n)
		return nil
	}
	v := p.b[p.i : p.i+n]
	p.i += n
	return v
}

// Done returns the sticky error if any, and otherwise fails when
// unconsumed bytes remain — a snapshot must be read exactly.
func (p *Parser) Done() error {
	if p.err != nil {
		return p.err
	}
	if p.i != len(p.b) {
		return fmt.Errorf("binc: %d trailing bytes after offset %d", len(p.b)-p.i, p.i)
	}
	return nil
}

// ErrVersion is wrapped by snapshot decoders rejecting an unknown format
// version, so callers can distinguish incompatibility from corruption.
var ErrVersion = errors.New("unsupported snapshot version")
