package frame

import (
	"encoding/binary"
	"fmt"
)

// Cursor reads the primitive encodings out of one payload with sticky
// error handling: the first malformed read poisons the cursor and every
// later read returns a zero value, so decoding logic stays linear and
// checks Err once at the end. It accepts exactly what the Append*
// writers produce — minimal varints, 0/1 booleans — so a payload that
// decodes re-encodes to the same bytes.
type Cursor struct {
	b      []byte
	off    int
	err    error
	prefix string
}

// NewCursor returns a cursor at the start of b whose errors read
// "prefix: ...".
func NewCursor(b []byte, prefix string) Cursor {
	return Cursor{b: b, prefix: prefix}
}

// Fail poisons the cursor, unless it already is.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(c.prefix+": "+format, args...)
	}
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Offset returns the number of bytes consumed so far.
func (c *Cursor) Offset() int { return c.off }

// End fails the cursor if unread bytes remain, and returns Err.
func (c *Cursor) End() error {
	if c.off < len(c.b) {
		c.Fail("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// Rest consumes and returns everything unread (nil once failed).
func (c *Cursor) Rest() []byte {
	if c.err != nil {
		return nil
	}
	r := c.b[c.off:]
	c.off = len(c.b)
	return r
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.Fail("truncated at byte %d", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// Bool reads one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	at := c.off
	v := c.Byte()
	if v > 1 {
		c.Fail("bad boolean %d at byte %d", v, at)
	}
	return v == 1
}

// Uvarint reads a base-128 varint. An encoding that ends in a zero byte
// is longer than it needs to be and is refused.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || (n > 1 && c.b[c.off+n-1] == 0) {
		c.Fail("bad varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Varint reads a zig-zag varint.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Count reads a collection length and rejects values that could not
// possibly fit in the remaining input (every element costs at least
// one byte), so corrupt or adversarial input cannot force a huge
// allocation before the truncation is noticed.
func (c *Cursor) Count(what string) int {
	n := c.Uvarint()
	if c.err != nil {
		return 0
	}
	if n > uint64(len(c.b)-c.off) {
		c.Fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (c *Cursor) Str() string {
	n := c.Count("string byte")
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// Hash128 reads two little-endian 64-bit words.
func (c *Cursor) Hash128() (h [2]uint64) {
	if c.err != nil {
		return h
	}
	if len(c.b)-c.off < 16 {
		c.Fail("truncated hash at byte %d", c.off)
		return h
	}
	h[0] = binary.LittleEndian.Uint64(c.b[c.off:])
	h[1] = binary.LittleEndian.Uint64(c.b[c.off+8:])
	c.off += 16
	return h
}

// AppendStr appends s the way Str reads it.
func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendHash128 appends h the way Hash128 reads it.
func AppendHash128(buf []byte, h [2]uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, h[0])
	return binary.LittleEndian.AppendUint64(buf, h[1])
}

// AppendBool appends b the way Bool reads it.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}
