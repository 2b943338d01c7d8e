package bin

import (
	"encoding/binary"
	"testing"
)

// TestReaderRoundTripAndStickyError: every primitive reads back what was
// appended; the first malformed field zeroes every later read and is what
// Done reports; leftover bytes are an error of their own.
func TestReaderRoundTripAndStickyError(t *testing.T) {
	yes, no := true, false
	b := binary.AppendUvarint(nil, 1<<40)
	b = binary.AppendVarint(b, -1<<63)
	b = append(b, Flags(&yes, &no, &yes))
	b = AppendString(b, "caf\xe9\x00")
	b = AppendString(b, "")

	r := NewReader(b)
	var f0, f1, f2 bool
	u, v := r.Uvarint(), r.Varint()
	SetFlags(r.Byte(), &f0, &f1, &f2)
	if s, e := r.String(), r.String(); u != 1<<40 || v != -1<<63 || !f0 || f1 || !f2 || s != "caf\xe9\x00" || e != "" {
		t.Fatalf("read back %d %d %v%v%v %q %q", u, v, f0, f1, f2, s, e)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done after an exact read: %v", err)
	}

	if r := NewReader(append(b, 0)); r.Uvarint() != 1<<40 || r.Done() != errTrailing {
		t.Fatal("bytes left after the message were not an error")
	}
	r = NewReader([]byte{5, 'a', 'b', 7}) // a 5-byte string with 3 bytes behind it
	if s, next := r.String(), r.Byte(); s != "" || next != 0 || r.Done() != errShort {
		t.Fatalf("oversized string length: read %q then %d, Done %v", s, next, r.Done())
	}
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if r := NewReader(overflow); r.Uvarint() != 0 || r.Done() != errShort {
		t.Fatal("an 11-byte varint decoded")
	}
	if r := NewReader(binary.AppendUvarint(nil, 3)); r.Count(1) != 0 || r.Done() != errShort {
		t.Fatal("a count with nothing behind it was accepted")
	}
	if r := NewReader(nil); r.Byte() != 0 || r.Done() != errShort {
		t.Fatal("a byte read from nothing")
	}
}
