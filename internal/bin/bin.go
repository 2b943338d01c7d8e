// Package bin holds the primitives of the peer protocol's binary encoding
// (DESIGN §11): encoding/binary's unsigned and zigzag varints, strings as a
// length then bytes, booleans packed eight to a byte. Encoders append to a
// []byte and cannot fail. Decoders share a Reader whose first error sticks,
// so a codec reads one field per line and checks once, in Done.
package bin

import (
	"encoding/binary"
	"errors"
	"math"
)

// AppendString appends s as its length and bytes, which need not be UTF-8.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

var (
	errShort    = errors.New("bin: message truncated, or a length exceeds the bytes left")
	errTrailing = errors.New("bin: bytes left after the message")
)

// Reader consumes one encoded message. After the first malformed field every
// read yields zero and Done reports that field's error.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b. Decoded values never alias it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// take consumes n bytes; n <= 0 (encoding/binary's malformed-varint result)
// or more than are left is the sticky error.
func (r *Reader) take(n int) []byte {
	if n <= 0 || n > len(r.b) {
		r.b, r.err = nil, errShort
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// Uvarint, Varint, Byte and String each read one field.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.take(n)
	return v
}

func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	r.take(n)
	return v
}

// Narrow converts a wire integer to an int, saturating at the int's range: a
// value too wide for a 32-bit word reads there as the widest one, which a
// bound on the field refuses as it refuses the exact value on 64 bits.
func Narrow(v int64) int { return int(max(min(v, math.MaxInt), math.MinInt)) }

func (r *Reader) Byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Count reads the length of a sequence whose elements take at least size
// bytes each. A length the bytes left cannot hold is an error here, before
// the caller allocates anything from it.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/size) {
		r.b, r.err = nil, errShort
		return 0
	}
	return int(n)
}

func (r *Reader) String() string {
	if n := r.Count(1); n > 0 {
		return string(r.take(n))
	}
	return ""
}

// Done ends the message: the first field error, or an error for bytes left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		return errTrailing
	}
	return r.err
}

// Flags packs up to eight booleans into one byte, first argument lowest bit;
// SetFlags is its inverse over the same argument list.
func Flags(bits ...*bool) (f byte) {
	for i, p := range bits {
		if *p {
			f |= 1 << i
		}
	}
	return f
}

func SetFlags(f byte, bits ...*bool) {
	for i, p := range bits {
		*p = f&(1<<i) != 0
	}
}
