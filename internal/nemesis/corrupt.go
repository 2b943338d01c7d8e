package nemesis

import (
	"bytes"
	"fmt"
)

// Scar kinds: the deterministic post-crash corruptions ScarJournal applies to
// a journal image. All four are CRC-detectable mutations — none deletes or
// truncates bytes — so a scarred record is always *detected* (quarantined),
// never silently lost, and the property tests can demand exact accounting.
const (
	// ScarBitFlip flips one low bit of one interior byte of a random line.
	ScarBitFlip = iota
	// ScarGarbleTail xors the tail of the last complete line (a write that
	// hit disk mangled but kept its record boundary).
	ScarGarbleTail
	// ScarDupLine duplicates a random line (a replayed write).
	ScarDupLine
	// ScarJunkLine inserts a line of non-record garbage after a random line
	// (a misdirected write from another file).
	ScarJunkLine

	// NumScarKinds is the ArgN to use for a scar op in a Plan.
	NumScarKinds = 4
)

// ScarJournal applies one deterministic corruption of the given kind to a
// journal image, drawing positions from the engine's integrity stream, and
// returns the scarred copy. The input is never modified. An image with no
// complete line is returned unchanged (nothing to scar); draws are consumed
// only when a scar is applied, so the integrity stream's sequence is a pure
// function of the applied scars.
func (n *Engine) ScarJournal(data []byte, kind int) []byte {
	lines := completeLines(data)
	if len(lines) == 0 {
		return append([]byte(nil), data...)
	}
	out := append([]byte(nil), data...)
	r := n.Stream(ClassIntegrity)
	switch kind % NumScarKinds {
	case ScarBitFlip:
		l := lines[r.IntN(len(lines))]
		if l.end-l.start < 2 {
			return out
		}
		pos := l.start + r.IntN(l.end-l.start-1) // exclude trailing newline
		out[pos] = flipAvoidNewline(out[pos])
	case ScarGarbleTail:
		l := lines[len(lines)-1]
		from := l.end - 1 - 16
		if from < l.start {
			from = l.start
		}
		for i := from; i < l.end-1; i++ {
			b := out[i] ^ 0x5a
			if b == '\n' {
				b = out[i] ^ 0x01
			}
			out[i] = b
		}
	case ScarDupLine:
		l := lines[r.IntN(len(lines))]
		dup := append([]byte(nil), out[l.start:l.end]...)
		out = append(out[:l.end], append(dup, out[l.end:]...)...)
	case ScarJunkLine:
		l := lines[r.IntN(len(lines))]
		junk := []byte(fmt.Sprintf("!!nemesis junk %d!!\n", r.IntN(1<<20)))
		out = append(out[:l.end], append(junk, out[l.end:]...)...)
	}
	return out
}

type lineSpan struct{ start, end int } // [start, end) including trailing newline

// completeLines returns the spans of newline-terminated, non-empty lines.
func completeLines(data []byte) []lineSpan {
	var spans []lineSpan
	start := 0
	for {
		i := bytes.IndexByte(data[start:], '\n')
		if i < 0 {
			break
		}
		end := start + i + 1
		if end-start > 1 {
			spans = append(spans, lineSpan{start, end})
		}
		start = end
	}
	return spans
}

// flipAvoidNewline flips the low bit of b, falling back to the next bit if
// the flip would produce a newline (which would split the record instead of
// corrupting it in place).
func flipAvoidNewline(b byte) byte {
	if f := b ^ 0x01; f != '\n' {
		return f
	}
	return b ^ 0x02
}
