// Package repl implements streaming journal replication: a primary ships
// acknowledged journal records — the seq/CRC-marked transaction segments
// the commit pipeline already writes — verbatim over a dedicated TCP
// stream, and replicas verify (CRC, sequence continuity) and apply them
// through the same recovery machinery that replays a journal at startup.
//
// The package owns the journal segment framing so the on-disk log and
// the wire stream are one format:
//
//	<LDIF change records…>
//	# commit seq=<n> len=<payload bytes> crc=<crc32c, 8 hex digits> epoch=<e>
//
// Every field is mandatory, on disk and on the wire: a marker without
// them is a damaged marker, never a record.
//
// Around that byte stream sits a small line-oriented control protocol
// (protocol.go): a replica opens with "REPL HELLO last_seq=<n>
// epoch=<e>", the primary answers with either a full snapshot or the
// journal tail, then streams segments forever, interleaving "REPL PING
// seq=<n> epoch=<e>" heartbeats between segments; the replica answers
// "REPL ACK seq=<n> epoch=<e>" after each segment is locally durable,
// which is what semi-sync commits wait on (hub.go). Epochs fence stale
// primaries: PROMOTE bumps the epoch, replicas refuse sessions from a
// lower-epoch primary (client.go), and a primary that observes a higher
// epoch in a HELLO or an ACK fences itself read-only.
package repl

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// markerPrefix starts the checksummed line terminating every journal
// segment. The marker is an LDIF comment, so generic LDIF tooling
// ignores it.
const markerPrefix = "# commit"

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC32C over a segment's payload bytes — the checksum
// the marker line carries.
func checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crc32cTable)
}

// MarkerLine renders the checksummed marker terminating a transaction's
// journal payload. epoch is the replication epoch the transaction was
// committed under.
func MarkerLine(seq uint64, payload []byte, epoch uint64) string {
	return fmt.Sprintf("%s seq=%d len=%d crc=%08x epoch=%d\n",
		markerPrefix, seq, len(payload), checksum(payload), epoch)
}

// IsMarkerLine reports whether a journal line is a commit marker.
func IsMarkerLine(line []byte) bool {
	return bytes.HasPrefix(line, []byte(markerPrefix))
}

// ParseMarker decodes a complete "# commit…" line and verifies the
// payload it terminates against the marker's length and CRC32C: the one
// segment verdict of the journal scanner and the replication stream.
// err means corruption: a line that claims to be a marker but does not
// carry all four fields (damaged, not torn, because the line is
// complete), or a payload whose length or checksum disagrees. The bare
// and epoch-less markers of pre-checksum journals are reported as an
// unsupported format rather than as damage, so the refusal names what
// the operator is holding.
func ParseMarker(line, payload []byte) (seq, epoch uint64, err error) {
	rest := line[len(markerPrefix):]
	if len(rest) > 0 && rest[0] != ' ' {
		return 0, 0, fmt.Errorf("damaged marker %q", line)
	}
	var length int64
	var crc uint32
	n, _ := fmt.Sscanf(string(rest), " seq=%d len=%d crc=%x epoch=%d", &seq, &length, &crc, &epoch)
	switch {
	case n == 4 && seq != 0:
	case len(rest) == 0, n == 3 && !bytes.Contains(rest, []byte(" epoch=")):
		return 0, 0, fmt.Errorf("unsupported pre-checksum journal format: marker %q lacks seq/len/crc/epoch", line)
	default:
		return 0, 0, fmt.Errorf("damaged marker %q", line)
	}
	if int64(len(payload)) != length {
		return seq, epoch, fmt.Errorf("segment seq=%d: payload is %d bytes, marker says %d", seq, len(payload), length)
	}
	if sum := checksum(payload); sum != crc {
		return seq, epoch, fmt.Errorf("segment seq=%d: checksum mismatch (stored %08x, computed %08x)", seq, crc, sum)
	}
	return seq, epoch, nil
}

// Segment is one verified replication unit: exactly one committed
// transaction as it sits in the journal.
type Segment struct {
	Seq     uint64
	Epoch   uint64 // replication epoch from the marker
	Payload []byte // the LDIF change records, without the marker line
	Raw     []byte // Payload plus the marker line — the verbatim journal bytes
}

// RawSegment reconstructs the verbatim journal bytes of a payload at
// seq. Because MarkerLine is deterministic, the result is byte-identical
// to what the committer appended.
func RawSegment(seq uint64, payload []byte, epoch uint64) []byte {
	marker := MarkerLine(seq, payload, epoch)
	raw := make([]byte, 0, len(payload)+len(marker))
	raw = append(raw, payload...)
	raw = append(raw, marker...)
	return raw
}
