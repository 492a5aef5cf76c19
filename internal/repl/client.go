package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"boundschema/internal/proto"
)

// Target is the replica-side state machine the streaming client drives.
// internal/server implements it over the live Server: Bootstrap
// installs a full snapshot, Apply admits one verified segment through
// the incremental legality checks and makes it locally durable, and
// LastSeq reports the durable high-water mark the handshake announces.
type Target interface {
	// LastSeq returns the highest sequence number held durably.
	LastSeq() uint64
	// Epoch returns the replication epoch the target last adopted.
	// Sessions from a primary announcing a lower epoch are refused.
	Epoch() uint64
	// Bootstrap replaces the local state with a snapshot (LDIF bytes,
	// including the "# snapshot-seq" header) compacted through seq
	// under the primary's epoch, and makes it durable. Called at most
	// once per connection.
	Bootstrap(seq, epoch uint64, snapshot []byte) error
	// Apply admits one CRC-verified segment: decode, check sequence
	// continuity, apply under the incremental legality tests, journal
	// durably. Returning nil acknowledges the segment (a duplicate the
	// target already holds is a nil too); an error ends the session.
	Apply(seg Segment) error
	// ObservePrimarySeq reports the primary's durable sequence number
	// learned from the stream — the replica's lag gauge input.
	ObservePrimarySeq(seq uint64)
}

// maxSnapshotBytes bounds the bootstrap blob a client will accept.
const maxSnapshotBytes = 1 << 30

// ErrStalePrimary marks a session refused because the primary is behind
// the replica's epoch — a fenced-off node that was promoted away from.
// Before returning it the client writes one poison ACK carrying its own
// (higher) epoch so the stale primary learns it must fence itself. The
// caller should keep its local state and wait to be repointed at the
// real primary rather than degrade.
var ErrStalePrimary = errors.New("repl: primary epoch is stale")

// poison writes the fencing ACK that tells a stale primary about the
// replica's higher epoch. Best-effort: the conn may already be broken.
func poison(conn io.Writer, t Target) {
	io.WriteString(conn, AckLine(t.LastSeq(), t.Epoch()))
}

// Run performs the replica side of the replication protocol over an
// established connection: HELLO with the local high-water mark and
// epoch, apply the snapshot or tail the primary chooses, then stream
// segments, acking each after the target makes it durable. It blocks
// until the connection closes or either side fails; a clean primary
// close between segments returns io.EOF. A primary announcing a lower
// epoch than the target's own is refused with ErrStalePrimary (after a
// poison ACK). The caller owns reconnect policy.
func Run(conn io.ReadWriter, t Target) error {
	br := bufio.NewReaderSize(conn, 64*1024)
	if _, err := io.WriteString(conn, HelloLine(t.LastSeq(), t.Epoch())); err != nil {
		return fmt.Errorf("repl: hello: %w", err)
	}
	header, err := readLine(br)
	if err != nil {
		return fmt.Errorf("repl: handshake: %w", err)
	}
	var sessionEpoch uint64 // what the primary announced in its header
	switch {
	case strings.HasPrefix(header, errPrefix):
		msg := strings.TrimPrefix(header, errPrefix)
		if strings.Contains(msg, proto.StaleEpoch) {
			return fmt.Errorf("%w: %s", ErrStalePrimary, msg)
		}
		return fmt.Errorf("repl: primary refused: %s", msg)
	case strings.HasPrefix(header, snapshotPrefix):
		var seq, epoch uint64
		var n int64
		rest := strings.TrimPrefix(header, snapshotPrefix)
		if cnt, _ := fmt.Sscanf(rest, "seq=%d len=%d epoch=%d", &seq, &n, &epoch); cnt != 3 {
			return fmt.Errorf("repl: malformed snapshot header %q", header)
		}
		if epoch < t.Epoch() {
			poison(conn, t)
			return fmt.Errorf("%w: snapshot from epoch %d, local epoch %d", ErrStalePrimary, epoch, t.Epoch())
		}
		sessionEpoch = epoch
		if n < 0 || n > maxSnapshotBytes {
			return fmt.Errorf("repl: snapshot of %d bytes refused", n)
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(br, blob); err != nil {
			return fmt.Errorf("repl: reading snapshot: %w", err)
		}
		if err := t.Bootstrap(seq, epoch, blob); err != nil {
			return err
		}
		t.ObservePrimarySeq(seq)
		if _, err := io.WriteString(conn, AckLine(seq, t.Epoch())); err != nil {
			return fmt.Errorf("repl: ack: %w", err)
		}
	case strings.HasPrefix(header, tailPrefix):
		// The tail is verbatim segments, parsed by the same loop as the
		// live stream; the header's epoch gates the session.
		var from uint64
		var count int64
		var epoch uint64
		rest := strings.TrimPrefix(header, tailPrefix)
		if cnt, _ := fmt.Sscanf(rest, "from=%d count=%d epoch=%d", &from, &count, &epoch); cnt != 3 {
			return fmt.Errorf("repl: malformed tail header %q", header)
		}
		if epoch < t.Epoch() {
			poison(conn, t)
			return fmt.Errorf("%w: tail from epoch %d, local epoch %d", ErrStalePrimary, epoch, t.Epoch())
		}
		sessionEpoch = epoch
	default:
		return fmt.Errorf("repl: unexpected handshake reply %q", header)
	}
	sr := &SegmentReader{r: br}
	for {
		seg, err := sr.Next(func(line string) error {
			seq, _, ok := parsePing(line)
			if !ok {
				return fmt.Errorf("repl: malformed control line %q", line)
			}
			t.ObservePrimarySeq(seq)
			return nil
		})
		if err != nil {
			return err
		}
		// Refuse shipped segments from a lower epoch instead of applying
		// them: this is the split-brain write path.
		if seg.Epoch < t.Epoch() {
			poison(conn, t)
			return fmt.Errorf("%w: segment seq=%d from epoch %d, local epoch %d",
				ErrStalePrimary, seg.Seq, seg.Epoch, t.Epoch())
		}
		if seg.Epoch > sessionEpoch {
			return fmt.Errorf("repl: segment seq=%d from epoch %d ahead of session epoch %d",
				seg.Seq, seg.Epoch, sessionEpoch)
		}
		if err := t.Apply(seg); err != nil {
			return err
		}
		t.ObservePrimarySeq(seg.Seq)
		if _, err := io.WriteString(conn, AckLine(seg.Seq, t.Epoch())); err != nil {
			return fmt.Errorf("repl: ack: %w", err)
		}
	}
}
