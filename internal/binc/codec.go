package binc

import (
	"fmt"
	"slices"
	"time"
)

// maxString bounds every string a Codec reads: names, keys and notes in
// the durable formats are far shorter.
const maxString = 4096

// Codec runs one durable format or wire frame in either direction, so
// the format is written once, as one function over a Codec that hands it
// each field by pointer: an encoder appends the field's value, a decoder
// parses the field into it with the Parser's bounds and sticky error.
// The field order is then one decision in one place, and a decoder can
// never drift from its encoder.
//
// A format function also states its decode-side checks (Check) at the
// point of the field sequence where they apply; an encoder writes live
// state as it is and checks nothing. Not safe for concurrent use.
type Codec struct {
	p   Parser
	buf []byte
	dec bool
}

// NewEncoder returns a codec appending to dst.
func NewEncoder(dst []byte) *Codec { return &Codec{buf: dst} }

// NewDecoder returns a codec parsing data. Strings it decodes are
// copies; only Bytes aliases data.
func NewDecoder(data []byte) *Codec { return &Codec{p: Parser{b: data}, dec: true} }

// ResetEncoder turns c into an encoder appending to dst, as NewEncoder
// would, so a codec held by value codes frame after frame without an
// allocation.
func (c *Codec) ResetEncoder(dst []byte) { *c = Codec{buf: dst} }

// ResetDecoder turns c into a decoder parsing data, as NewDecoder would.
func (c *Codec) ResetDecoder(data []byte) { *c = Codec{p: Parser{b: data}, dec: true} }

// Decoding reports whether the codec parses (true) or appends (false).
func (c *Codec) Decoding() bool { return c.dec }

// Buffer returns the encoder's buffer: dst with every field appended.
func (c *Codec) Buffer() []byte { return c.buf }

// Err returns the decoder's first failure — a parse error or a failed
// Check — and nil while there is none, and always when encoding.
func (c *Codec) Err() error { return c.p.err }

// Done returns Err, or else fails if bytes remain unread: a snapshot
// must be read exactly.
func (c *Codec) Done() error { return c.p.Done() }

// Check fails a decoder whose input has not failed yet with
// fmt.Errorf(format, args...) unless ok holds. Like a parse error the
// failure is sticky: later fields read as zero values and later checks
// pass, so Err reports the first failure in field order. A format
// function tests Err before it uses a decoded value that a failed check
// leaves unsafe (an index, a size). The arguments are boxed on every
// call, encoding too, so a hot path calls Check with an integer argument
// only where the check fails.
func (c *Codec) Check(ok bool, format string, args ...any) {
	if c.dec && !ok && c.p.err == nil {
		c.p.err = fmt.Errorf(format, args...)
	}
}

// Byte codes one raw byte.
func (c *Codec) Byte(v *byte) {
	if c.dec {
		*v = c.p.Byte()
	} else {
		c.buf = append(c.buf, *v)
	}
}

// Bool codes one boolean byte.
func (c *Codec) Bool(v *bool) {
	if c.dec {
		*v = c.p.Bool()
	} else {
		c.buf = AppendBool(c.buf, *v)
	}
}

// Uvarint codes an unsigned integer.
func (c *Codec) Uvarint(v *uint64) {
	if c.dec {
		*v = c.p.Uvarint()
	} else {
		c.buf = AppendUvarint(c.buf, *v)
	}
}

// Varint codes a signed integer.
func (c *Codec) Varint(v *int64) {
	if c.dec {
		*v = c.p.Varint()
	} else {
		c.buf = AppendVarint(c.buf, *v)
	}
}

// Count codes a non-negative int as a uvarint; a decoded value above max
// fails the parse.
func (c *Codec) Count(v *int, max int) {
	if c.dec {
		*v = c.p.Count(max)
	} else {
		c.buf = AppendUvarint(c.buf, uint64(*v))
	}
}

// Float codes a float64 bit-exactly.
func (c *Codec) Float(v *float64) {
	if c.dec {
		*v = c.p.Float()
	} else {
		c.buf = AppendFloat(c.buf, *v)
	}
}

// String codes a string; a decoded one is at most maxString (4 KiB)
// long.
func (c *Codec) String(v *string) {
	if c.dec {
		*v = c.p.String(maxString)
	} else {
		c.buf = AppendString(c.buf, *v)
	}
}

// Bytes codes a length-prefixed byte run. A decoded run is no longer
// than the input that remains, and it aliases the input rather than
// copying it: the caller copies what it keeps.
func (c *Codec) Bytes(v *[]byte) {
	if c.dec {
		*v = c.p.Bytes(c.p.Remaining())
	} else {
		c.buf = AppendBytes(c.buf, *v)
	}
}

// Time codes an instant as its UnixNano. A decoded instant is UTC and
// carries no monotonic reading.
func (c *Codec) Time(v *time.Time) {
	ns := v.UnixNano()
	c.Varint(&ns)
	if c.dec {
		*v = time.Unix(0, ns).UTC()
	}
}

// Keys codes a canonical key-sorted sequence: a count, then one entry
// per key, each opening with its key. Encoding writes the keys in
// ascending order. Decoding requires each key to be strictly greater
// than the one before it; the format states that check (InOrder) at the
// point of the entry where it applies, like any other Check. Start one
// with Codec.Sorted and step through it with Next.
type Keys struct {
	c         *Codec
	keys      []string
	n, i      int
	key, prev string
}

// Sorted starts a key-sorted sequence of at most max keys. Encoding
// sorts keys in place unless they already are and writes their count;
// decoding reads the count and ignores keys.
func (c *Codec) Sorted(keys []string, max int) *Keys {
	if !c.dec && !slices.IsSorted(keys) {
		slices.Sort(keys)
	}
	k := &Keys{c: c, keys: keys, n: len(keys), i: -1}
	c.Count(&k.n, max)
	return k
}

// Next codes the next entry's key and reports whether there is one:
// false past the last entry and once the codec has failed.
func (k *Keys) Next() bool {
	k.i++
	if k.i >= k.n || k.c.p.err != nil {
		return false
	}
	k.prev, k.key = k.key, ""
	if !k.c.dec {
		k.key = k.keys[k.i]
	}
	k.c.String(&k.key)
	return k.c.p.err == nil
}

// Index returns the current entry's position in the sequence.
func (k *Keys) Index() int { return k.i }

// Key returns the current entry's key.
func (k *Keys) Key() string { return k.key }

// Prev returns the previous entry's key, "" at the first entry.
func (k *Keys) Prev() string { return k.prev }

// InOrder reports whether the current key is strictly greater than the
// previous one; the first key is always in order.
func (k *Keys) InOrder() bool { return k.i == 0 || k.key > k.prev }
