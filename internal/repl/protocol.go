package repl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// The control protocol around the segment stream. Control lines start
// with "REPL " so they can never be mistaken for journal bytes (LDIF
// change records begin lines with "dn:", attribute names, "-", "#" or
// blank). The handshake:
//
//	replica → REPL HELLO last_seq=<n> epoch=<e>
//	primary → REPL SNAPSHOT seq=<n> len=<b> epoch=<e>  followed by b snapshot bytes
//	        | REPL TAIL from=<m> count=<k> epoch=<e>   followed by the journal tail
//	        | REPL ERR <message>                       refusal; the connection closes
//
// then the primary streams segments (segment.go) interleaved with
//
//	primary → REPL PING seq=<n> epoch=<e>              heartbeat between segments
//	replica → REPL ACK seq=<n> epoch=<e>               segment n is locally durable
//
// Every field of every line is mandatory: a line without its epoch is
// malformed, and the session it arrived on is closed.

const (
	controlPrefix  = "REPL "
	helloPrefix    = "REPL HELLO "
	ackPrefix      = "REPL ACK "
	pingPrefix     = "REPL PING "
	errPrefix      = "REPL ERR "
	snapshotPrefix = "REPL SNAPSHOT "
	tailPrefix     = "REPL TAIL "
)

// MaxSegmentBytes bounds one streamed segment (payload plus marker); a
// peer claiming more is treated as a protocol error, not a huge alloc.
const MaxSegmentBytes = 64 << 20

// HelloLine opens the handshake: the replica announces the highest
// sequence number it holds durably and the replication epoch it last
// adopted.
func HelloLine(lastSeq, epoch uint64) string {
	return fmt.Sprintf("%slast_seq=%d epoch=%d\n", helloPrefix, lastSeq, epoch)
}

// ParseHello decodes a HELLO line (without trailing newline).
func ParseHello(line string) (lastSeq, epoch uint64, err error) {
	rest, ok := strings.CutPrefix(line, helloPrefix)
	if !ok {
		return 0, 0, fmt.Errorf("repl: expected HELLO, got %q", line)
	}
	if n, _ := fmt.Sscanf(rest, "last_seq=%d epoch=%d", &lastSeq, &epoch); n != 2 {
		return 0, 0, fmt.Errorf("repl: malformed HELLO %q", line)
	}
	return lastSeq, epoch, nil
}

// AckLine acknowledges that segment seq is durable on the replica,
// stamped with the replica's epoch. An ACK carrying a higher epoch than
// the primary's own is a fencing signal: the replica has adopted a
// newer primary and is poisoning this one.
func AckLine(seq, epoch uint64) string {
	return fmt.Sprintf("%sseq=%d epoch=%d\n", ackPrefix, seq, epoch)
}

// ParseAck decodes an ACK line (without trailing newline).
func ParseAck(line string) (seq, epoch uint64, err error) {
	rest, ok := strings.CutPrefix(line, ackPrefix)
	if !ok {
		return 0, 0, fmt.Errorf("repl: expected ACK, got %q", line)
	}
	if n, _ := fmt.Sscanf(rest, "seq=%d epoch=%d", &seq, &epoch); n != 2 {
		return 0, 0, fmt.Errorf("repl: malformed ACK %q", line)
	}
	return seq, epoch, nil
}

// PingLine is the primary's heartbeat carrying its current durable
// sequence number, from which a replica derives its lag, and its epoch.
func PingLine(seq, epoch uint64) string {
	return fmt.Sprintf("%sseq=%d epoch=%d\n", pingPrefix, seq, epoch)
}

func parsePing(line string) (seq, epoch uint64, ok bool) {
	rest, found := strings.CutPrefix(line, pingPrefix)
	if !found {
		return 0, 0, false
	}
	if n, _ := fmt.Sscanf(rest, "seq=%d epoch=%d", &seq, &epoch); n != 2 {
		return 0, 0, false
	}
	return seq, epoch, true
}

// ErrLine refuses a handshake with a reason.
func ErrLine(msg string) string {
	return errPrefix + strings.ReplaceAll(msg, "\n", " ") + "\n"
}

// SnapshotHeader announces a full-instance bootstrap: n bytes of
// LDIF (including the "# snapshot-seq" / "# snapshot-epoch" headers)
// follow, compacting the history through seq under the primary's epoch.
func SnapshotHeader(seq uint64, n int, epoch uint64) string {
	return fmt.Sprintf("%sseq=%d len=%d epoch=%d\n", snapshotPrefix, seq, n, epoch)
}

// TailHeader announces a catch-up from the journal tail: count verbatim
// segments starting at sequence number from follow, then the live
// stream. count may be 0 (the replica is already caught up). epoch is
// the primary's current epoch.
func TailHeader(from uint64, count int, epoch uint64) string {
	return fmt.Sprintf("%sfrom=%d count=%d epoch=%d\n", tailPrefix, from, count, epoch)
}

// SegmentReader incrementally parses the primary's byte stream into
// verified segments, dispatching interleaved control lines (pings) to a
// callback. It enforces the same verdict logic as the journal scanner:
// a complete marker that is damaged, or whose payload fails length or
// CRC verification, is corruption.
type SegmentReader struct {
	r       *bufio.Reader
	payload bytes.Buffer
}

// NewSegmentReader wraps the connection's read side.
func NewSegmentReader(r io.Reader) *SegmentReader {
	return &SegmentReader{r: bufio.NewReaderSize(r, 64*1024)}
}

// Next returns the next verified segment. Control lines between
// segments are passed to onControl (which may be nil). Errors are
// terminal: a malformed marker, a checksum mismatch, a control line
// splitting a segment or refused by onControl, or the underlying read
// error (io.EOF when the primary closes cleanly between segments).
func (sr *SegmentReader) Next(onControl func(line string) error) (Segment, error) {
	for {
		line, err := sr.r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF && (len(line) > 0 || sr.payload.Len() > 0) {
				return Segment{}, io.ErrUnexpectedEOF
			}
			return Segment{}, err
		}
		switch {
		case bytes.HasPrefix(line, []byte(controlPrefix)):
			if sr.payload.Len() > 0 {
				return Segment{}, fmt.Errorf("repl: control line %q inside a segment", bytes.TrimSpace(line))
			}
			if onControl != nil {
				if err := onControl(strings.TrimRight(string(line), "\n")); err != nil {
					return Segment{}, err
				}
			}
		case IsMarkerLine(bytes.TrimRight(line, "\n")):
			marker := bytes.TrimRight(line, "\n")
			seq, length, crc, epoch, perr := ParseMarker(marker)
			if perr != nil {
				return Segment{}, fmt.Errorf("repl: %v", perr)
			}
			payload := append([]byte(nil), sr.payload.Bytes()...)
			sr.payload.Reset()
			if int64(len(payload)) != length {
				return Segment{}, fmt.Errorf("repl: segment seq=%d: payload is %d bytes, marker says %d", seq, len(payload), length)
			}
			if Checksum(payload) != crc {
				return Segment{}, fmt.Errorf("repl: segment seq=%d: checksum mismatch (stored %08x, computed %08x)",
					seq, crc, Checksum(payload))
			}
			raw := make([]byte, 0, len(payload)+len(line))
			raw = append(raw, payload...)
			raw = append(raw, line...)
			return Segment{Seq: seq, Epoch: epoch, Payload: payload, Raw: raw}, nil
		default:
			if sr.payload.Len()+len(line) > MaxSegmentBytes {
				return Segment{}, fmt.Errorf("repl: segment exceeds %d bytes without a marker", MaxSegmentBytes)
			}
			sr.payload.Write(line)
		}
	}
}

// readLine reads one newline-terminated control line, trimming the
// terminator. Shared by the handshake paths on both sides.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}
