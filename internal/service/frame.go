package service

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// Journal line framing. Every record the journal writes is wrapped in a
// CRC32C + length frame:
//
//	#c1 <crc32c-8-hex> <payload-len-decimal> <payload-json>\n
//
// so recovery can tell a damaged record from an intact one byte-for-byte
// instead of trusting the JSON parser's opinion (a bit flip inside a string
// literal parses fine and silently changes a job). A line of any other shape
// — bare JSON included — is damage by definition: the journal only ever
// writes frames, and bytes that cannot be verified are never replayed.

// castagnoli is the CRC32C polynomial table; Castagnoli is the standard
// storage-integrity checksum (iSCSI, ext4, Btrfs) with hardware support on
// both amd64 and arm64 via Go's crc32 package.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the integrity function used for journal frames, ship batches,
// and peer payload verification — one algorithm everywhere.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// frameMagic opens every framed line; the "1" is a format version.
const frameMagic = "#c1 "

// frameLine wraps a marshaled record payload in a framed line (with trailing
// newline). The payload must not contain '\n' (encoding/json never emits one).
func frameLine(payload []byte) []byte {
	return []byte(fmt.Sprintf("%s%08x %d %s\n", frameMagic, checksum(payload), len(payload), payload))
}

// unframeLine validates one journal line (without its trailing newline) and
// returns the record payload: the frame must parse exactly and match both its
// declared length and CRC. Any failure is reported as a
// *diag.CorruptionError-shaped reason string for the quarantine sidecar.
func unframeLine(line []byte) ([]byte, error) {
	if !bytes.HasPrefix(line, []byte(frameMagic)) {
		return nil, fmt.Errorf("unrecognized framing (line starts %q)", clip(line, 12))
	}
	rest := line[len(frameMagic):]
	sp := bytes.IndexByte(rest, ' ')
	if sp != 8 {
		return nil, fmt.Errorf("malformed frame header (bad checksum field)")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("malformed frame header (checksum not hex)")
	}
	rest = rest[9:]
	sp = bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, fmt.Errorf("malformed frame header (missing length)")
	}
	var n int
	if _, err := fmt.Sscanf(string(rest[:sp]), "%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("malformed frame header (length not decimal)")
	}
	payload := rest[sp+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("length mismatch (declared %d, found %d bytes)", n, len(payload))
	}
	if got := checksum(payload); got != want {
		return nil, fmt.Errorf("checksum mismatch (declared %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// clip bounds a byte slice for error messages.
func clip(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
