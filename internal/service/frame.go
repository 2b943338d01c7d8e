package service

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
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

// appendFrame appends payload to dst as one framed line (trailing newline
// included): the journal frames a record straight into its pending buffer.
// The payload must not contain '\n' (a compact JSON record never does).
func appendFrame(dst, payload []byte) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, frameMagic...)
	sum := checksum(payload)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xf])
	}
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(len(payload)), 10)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// frameLine is appendFrame into a line of its own (a header is at most 35
// bytes).
func frameLine(payload []byte) []byte {
	return appendFrame(make([]byte, 0, len(payload)+36), payload)
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
	want, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed frame header (checksum not hex)")
	}
	rest = rest[9:]
	sp = bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return nil, fmt.Errorf("malformed frame header (missing length)")
	}
	n, err := strconv.ParseUint(string(rest[:sp]), 10, 31)
	if err != nil {
		return nil, fmt.Errorf("malformed frame header (length not decimal)")
	}
	payload := rest[sp+1:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("length mismatch (declared %d, found %d bytes)", n, len(payload))
	}
	if got := checksum(payload); got != uint32(want) {
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
