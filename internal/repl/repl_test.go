package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func seg(t *testing.T, seq uint64, payload string) Segment {
	t.Helper()
	return epochSeg(t, seq, 1, payload)
}

// epochSeg builds a segment committed under the given epoch.
func epochSeg(t *testing.T, seq, epoch uint64, payload string) Segment {
	t.Helper()
	raw := RawSegment(seq, []byte(payload), epoch)
	return Segment{Seq: seq, Epoch: epoch, Payload: []byte(payload), Raw: raw}
}

func TestMarkerRoundTrip(t *testing.T) {
	payload := []byte("dn: uid=a,o=x\nchangetype: add\nobjectClass: person\n\n")
	line := MarkerLine(7, payload, 3)
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("marker not newline-terminated: %q", line)
	}
	marker := []byte(strings.TrimRight(line, "\n"))
	seq, epoch, err := ParseMarker(marker, payload)
	if err != nil {
		t.Fatalf("ParseMarker: seq=%d err=%v", seq, err)
	}
	if seq != 7 || epoch != 3 {
		t.Fatalf("round trip mismatch: seq=%d epoch=%d", seq, epoch)
	}
	// The payload must match the marker's length and checksum.
	for bad, want := range map[string]string{"dn: uid=a": "marker says", string(payload[:len(payload)-1]) + "x": "checksum mismatch"} {
		if _, _, err := ParseMarker(marker, []byte(bad)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseMarker with payload %q = %v, want %q", bad, err, want)
		}
	}
	// Every field is mandatory: the bare and epoch-less markers of
	// pre-checksum journals are refused by name, anything else that
	// fails to parse is damage.
	for _, old := range []string{markerPrefix, markerPrefix + " seq=7 len=2 crc=0000abcd"} {
		if _, _, err := ParseMarker([]byte(old), nil); err == nil || !strings.Contains(err.Error(), "unsupported pre-checksum journal format") {
			t.Fatalf("ParseMarker(%q) = %v, want the unsupported-format refusal", old, err)
		}
	}
	for _, bad := range []string{markerPrefix + " seq=zap", markerPrefix + " seq=1 len=2 crc=0000abcd epoch=x", markerPrefix + "seq=1 len=2 crc=0000abcd epoch=1"} {
		if _, _, err := ParseMarker([]byte(bad), nil); err == nil || !strings.Contains(err.Error(), "damaged marker") {
			t.Fatalf("ParseMarker(%q) = %v, want damaged marker", bad, err)
		}
	}
}

func TestHelloAckLines(t *testing.T) {
	n, e, err := ParseHello(strings.TrimRight(helloLine(42, 3), "\n"))
	if err != nil || n != 42 || e != 3 {
		t.Fatalf("hello round trip: %d %d %v", n, e, err)
	}
	for _, bad := range []string{"REPL HELLO last_seq=42", "REPL HELLO last_seq=x"} {
		if _, _, err := ParseHello(bad); err == nil || !strings.Contains(err.Error(), "malformed HELLO") {
			t.Fatalf("ParseHello(%q) = %v, want malformed", bad, err)
		}
	}
	n, e, err = ParseAck(strings.TrimRight(ackLine(9, 2), "\n"))
	if err != nil || n != 9 || e != 2 {
		t.Fatalf("ack round trip: %d %d %v", n, e, err)
	}
	if _, _, err := ParseAck("REPL ACK seq=9"); err == nil || !strings.Contains(err.Error(), "malformed ACK") {
		t.Fatalf("epoch-less ack = %v, want malformed", err)
	}
	if _, _, ok := parsePing("REPL PING seq=9"); ok {
		t.Fatal("epoch-less ping accepted")
	}
	if seq, e, ok := parsePing(strings.TrimRight(pingLine(9, 2), "\n")); !ok || seq != 9 || e != 2 {
		t.Fatalf("ping round trip: %d %d %v", seq, e, ok)
	}
}

func TestSegmentReaderStream(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(seg(t, 1, "dn: a\nchangetype: delete\n\n").Raw)
	stream.WriteString(pingLine(1, 1))
	stream.Write(seg(t, 2, "dn: b\nchangetype: delete\n\n").Raw)
	stream.Write(epochSeg(t, 3, 2, "dn: c\nchangetype: delete\n\n").Raw)

	sr := &segmentReader{r: bufio.NewReader(&stream)}
	var pings []string
	var got []uint64
	for {
		s, err := sr.next(func(line string) error { pings = append(pings, line); return nil })
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !bytes.HasSuffix(s.Raw, []byte(MarkerLine(s.Seq, s.Payload, s.Epoch))) {
			t.Fatalf("segment %d raw bytes not verbatim", s.Seq)
		}
		got = append(got, s.Seq)
		if s.Seq == 3 && s.Epoch != 2 {
			t.Fatalf("segment 3 epoch = %d, want 2", s.Epoch)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("segments = %v", got)
	}
	if len(pings) != 1 || !strings.HasPrefix(pings[0], "REPL PING ") {
		t.Fatalf("pings = %v", pings)
	}
}

func TestSegmentReaderRejects(t *testing.T) {
	cases := map[string]string{
		"checksum mismatch": "dn: a\n" + MarkerLine(1, []byte("dn: b\n"), 1),
		"length mismatch":   "dn: a\n" + fmt.Sprintf("%s seq=1 len=3 crc=%08x epoch=1\n", markerPrefix, checksum([]byte("dn: a\n"))),
		"bare marker":       "dn: a\n" + markerPrefix + "\n",
		"epoch-less marker": "dn: a\n" + fmt.Sprintf("%s seq=1 len=6 crc=%08x\n", markerPrefix, checksum([]byte("dn: a\n"))),
		"damaged marker":    "dn: a\n" + markerPrefix + " seq=zap\n",
		"control mid-seg":   "dn: a\n" + pingLine(5, 1) + string(RawSegment(1, []byte("dn: a\n"), 1)),
	}
	for name, stream := range cases {
		sr := &segmentReader{r: bufio.NewReader(strings.NewReader(stream))}
		if _, err := sr.next(nil); err == nil || err == io.EOF {
			t.Errorf("%s: error = %v, want rejection", name, err)
		}
	}
	// A torn tail (no trailing newline, or bytes after the last marker)
	// must be unexpected-EOF, distinguishable from a clean close.
	sr := &segmentReader{r: bufio.NewReader(strings.NewReader("dn: half-a-segment"))}
	if _, err := sr.next(nil); err != io.ErrUnexpectedEOF {
		t.Errorf("torn stream: err = %v, want ErrUnexpectedEOF", err)
	}
	sr = &segmentReader{r: bufio.NewReader(strings.NewReader(""))}
	if _, err := sr.next(nil); err != io.EOF {
		t.Errorf("clean close: err = %v, want EOF", err)
	}
}

// collectWriter records writes and signals each one.
type collectWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *collectWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *collectWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHubShipOrderAndFirst(t *testing.T) {
	h := NewHub(async, 0, time.Hour, nil)
	defer h.Close()
	w := &collectWriter{}
	header := []byte(TailHeader(1, 0, 1))
	sub := h.Subscribe("r1", w, nil, header)
	s1, s2 := seg(t, 1, "dn: a\n\n"), seg(t, 2, "dn: b\n\n")
	h.Ship(1, s1.Raw)
	h.Ship(2, s2.Raw)
	want := string(header) + string(s1.Raw) + string(s2.Raw)
	waitFor(t, "subscriber drain", func() bool { return w.String() == want })
	st := h.Status()
	if st.Replicas != 1 || st.LastShipped != 2 {
		t.Fatalf("status = %+v", st)
	}
	h.Unsubscribe(sub)
	waitFor(t, "unsubscribe", func() bool { return h.Status().Replicas == 0 })
}

func TestHubSemiSyncGateAndAck(t *testing.T) {
	h := NewHub(SemiSync, time.Hour, time.Hour, nil)
	defer h.Close()
	w := &collectWriter{}
	sub := h.Subscribe("r1", w, nil)
	done := make(chan error, 1)
	h.Gate(5, done)
	select {
	case <-done:
		t.Fatal("gate released before ack")
	case <-time.After(20 * time.Millisecond):
	}
	h.Ack(sub, 4)
	select {
	case <-done:
		t.Fatal("gate released by an ack below its seq")
	case <-time.After(20 * time.Millisecond):
	}
	h.Ack(sub, 5)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gate released with error %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("gate not released by covering ack")
	}
	// An ack that already covers the seq releases immediately.
	done2 := make(chan error, 1)
	h.Gate(3, done2)
	if err := <-done2; err != nil {
		t.Fatalf("pre-covered gate: %v", err)
	}
	if st := h.Status(); st.AckedSeq != 5 || st.Degraded {
		t.Fatalf("status = %+v", st)
	}
}

func TestHubSemiSyncDegradesWithoutReplicas(t *testing.T) {
	var logged []string
	var mu sync.Mutex
	h := NewHub(SemiSync, time.Hour, time.Hour, func(f string, a ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(f, a...))
		mu.Unlock()
	})
	defer h.Close()
	done := make(chan error, 1)
	h.Gate(1, done)
	if err := <-done; err != nil {
		t.Fatalf("no-replica gate: %v", err)
	}
	if st := h.Status(); !st.Degraded {
		t.Fatalf("hub not degraded with no replicas: %+v", st)
	}
	// A replica that catches up to the shipped watermark re-arms it.
	w := &collectWriter{}
	sub := h.Subscribe("r1", w, nil)
	h.Ship(3, []byte("x"))
	h.Ack(sub, 3)
	if st := h.Status(); st.Degraded {
		t.Fatalf("hub still degraded after catch-up: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(logged, "\n")
	if !strings.Contains(joined, "degraded") || !strings.Contains(joined, "re-enabled") {
		t.Fatalf("degradation transitions not logged:\n%s", joined)
	}
}

func TestHubSemiSyncAckTimeout(t *testing.T) {
	h := NewHub(SemiSync, 30*time.Millisecond, time.Hour, nil)
	defer h.Close()
	h.Subscribe("r1", &collectWriter{}, nil) // present but never acks
	done := make(chan error, 1)
	h.Gate(1, done)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("timed-out gate: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("gate not released by ack timeout")
	}
	if st := h.Status(); !st.Degraded {
		t.Fatalf("hub not degraded after timeout: %+v", st)
	}
}

func TestHubCloseReleasesGates(t *testing.T) {
	h := NewHub(SemiSync, time.Hour, time.Hour, nil)
	h.Subscribe("r1", &collectWriter{}, nil)
	done := make(chan error, 1)
	h.Gate(1, done)
	h.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close left a gate parked")
	}
}

// fakeTarget implements Target over in-memory state.
type fakeTarget struct {
	mu         sync.Mutex
	last       uint64
	epoch      uint64
	boot       []byte
	bootSeq    uint64
	bootEpoch  uint64
	applied    []uint64
	primarySeq uint64
	applyErr   error
}

func (f *fakeTarget) LastSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

func (f *fakeTarget) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeTarget) Bootstrap(seq, epoch uint64, snap []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.boot, f.bootSeq, f.bootEpoch, f.last = append([]byte(nil), snap...), seq, epoch, seq
	if epoch > f.epoch {
		f.epoch = epoch
	}
	return nil
}

func (f *fakeTarget) Apply(s Segment) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.applyErr != nil {
		return f.applyErr
	}
	if s.Seq <= f.last {
		return nil
	}
	if s.Seq != f.last+1 {
		return fmt.Errorf("gap: have %d, got %d", f.last, s.Seq)
	}
	f.last = s.Seq
	f.applied = append(f.applied, s.Seq)
	return nil
}

func (f *fakeTarget) ObservePrimarySeq(seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if seq > f.primarySeq {
		f.primarySeq = seq
	}
}

// TestClientRunSnapshotThenStream scripts the primary side over a pipe:
// snapshot bootstrap, two live segments, then a clean close, asserting
// the client acks each durability point.
func TestClientRunSnapshotThenStream(t *testing.T) {
	cli, prim := net.Pipe()
	target := &fakeTarget{}
	runErr := make(chan error, 1)
	go func() { runErr <- Run(cli, target) }()

	br := bufio.NewReader(prim)
	line, err := readLine(br)
	if err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	if n, _, err := ParseHello(line); err != nil || n != 0 {
		t.Fatalf("hello = %q (%v)", line, err)
	}
	snap := []byte("# snapshot-seq 4\ndn: o=x\nobjectClass: top\n\n")
	io.WriteString(prim, SnapshotHeader(4, len(snap), 2))
	prim.Write(snap)
	if line, _ = readLine(br); line != strings.TrimRight(ackLine(4, 2), "\n") {
		t.Fatalf("snapshot ack = %q", line)
	}
	s5, s6 := epochSeg(t, 5, 2, "dn: a\nchangetype: delete\n\n"), epochSeg(t, 6, 2, "dn: b\nchangetype: delete\n\n")
	prim.Write(s5.Raw)
	// net.Pipe is synchronous: drain the ack before writing more.
	if line, _ = readLine(br); line != strings.TrimRight(ackLine(5, 2), "\n") {
		t.Fatalf("ack 5 = %q", line)
	}
	io.WriteString(prim, pingLine(6, 2))
	prim.Write(s6.Raw)
	if line, _ = readLine(br); line != strings.TrimRight(ackLine(6, 2), "\n") {
		t.Fatalf("ack 6 = %q", line)
	}
	prim.Close()
	if err := <-runErr; err != io.EOF {
		t.Fatalf("Run = %v, want EOF on clean close", err)
	}
	if target.bootSeq != 4 || target.bootEpoch != 2 || !bytes.Equal(target.boot, snap) {
		t.Fatalf("bootstrap seq=%d epoch=%d", target.bootSeq, target.bootEpoch)
	}
	if len(target.applied) != 2 || target.last != 6 || target.primarySeq != 6 {
		t.Fatalf("applied=%v last=%d primarySeq=%d", target.applied, target.last, target.primarySeq)
	}
}

// TestClientRunTail: a TAIL handshake streams verbatim segments with no
// bootstrap blob.
func TestClientRunTail(t *testing.T) {
	cli, prim := net.Pipe()
	target := &fakeTarget{last: 2, epoch: 1}
	runErr := make(chan error, 1)
	go func() { runErr <- Run(cli, target) }()

	br := bufio.NewReader(prim)
	line, _ := readLine(br)
	if n, e, err := ParseHello(line); err != nil || n != 2 || e != 1 {
		t.Fatalf("hello = %q", line)
	}
	io.WriteString(prim, TailHeader(3, 1, 1))
	prim.Write(seg(t, 3, "dn: c\nchangetype: delete\n\n").Raw)
	if line, _ = readLine(br); line != strings.TrimRight(ackLine(3, 1), "\n") {
		t.Fatalf("ack = %q", line)
	}
	prim.Close()
	<-runErr
	if target.last != 3 {
		t.Fatalf("target.last = %d", target.last)
	}
}

// TestClientRunRefused: a REPL ERR reply surfaces as an error.
func TestClientRunRefused(t *testing.T) {
	cli, prim := net.Pipe()
	runErr := make(chan error, 1)
	go func() { runErr <- Run(cli, &fakeTarget{}) }()
	br := bufio.NewReader(prim)
	readLine(br)
	io.WriteString(prim, ErrLine("not primary"))
	prim.Close()
	err := <-runErr
	if err == nil || !strings.Contains(err.Error(), "not primary") {
		t.Fatalf("refusal error = %v", err)
	}
}

// TestClientRefusesEpochlessHeaders: a catch-up header without its
// epoch is malformed; the session ends before anything is applied.
func TestClientRefusesEpochlessHeaders(t *testing.T) {
	for _, header := range []string{"REPL TAIL from=1 count=0\n", "REPL SNAPSHOT seq=1 len=0\n"} {
		cli, prim := net.Pipe()
		target := &fakeTarget{}
		runErr := make(chan error, 1)
		go func() { runErr <- Run(cli, target) }()
		readLine(bufio.NewReader(prim))
		io.WriteString(prim, header)
		err := <-runErr
		prim.Close()
		if err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%q: Run = %v, want a malformed-header refusal", header, err)
		}
		if target.boot != nil || len(target.applied) != 0 {
			t.Errorf("%q: target mutated by a refused session", header)
		}
	}
}

// TestClientApplyErrorStopsRun: a target that rejects a segment ends the
// session with that error.
func TestClientApplyErrorStopsRun(t *testing.T) {
	cli, prim := net.Pipe()
	target := &fakeTarget{applyErr: fmt.Errorf("diverged")}
	runErr := make(chan error, 1)
	go func() { runErr <- Run(cli, target) }()
	br := bufio.NewReader(prim)
	readLine(br)
	io.WriteString(prim, TailHeader(1, 1, 1))
	prim.Write(seg(t, 1, "dn: a\nchangetype: delete\n\n").Raw)
	err := <-runErr
	prim.Close()
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("apply error = %v", err)
	}
}

// TestClientRefusesStalePrimary: a session announcing a lower epoch than
// the replica's own is refused with ErrStalePrimary, preceded by a
// poison ACK carrying the replica's higher epoch, and nothing is
// applied. The same segment from a same-epoch session applies — it is
// the epoch comparison alone that rejects it.
func TestClientRefusesStalePrimary(t *testing.T) {
	conflicting := "dn: split,o=x\nchangetype: delete\n\n"

	// Stale: the primary's TAIL header and segment are from epoch 1,
	// the replica has adopted epoch 2.
	cli, prim := net.Pipe()
	target := &fakeTarget{last: 2, epoch: 2}
	runErr := make(chan error, 1)
	go func() { runErr <- Run(cli, target) }()
	br := bufio.NewReader(prim)
	readLine(br) // HELLO
	io.WriteString(prim, TailHeader(3, 1, 1))
	line, err := readLine(br)
	if err != nil {
		t.Fatalf("reading poison ack: %v", err)
	}
	seq, epoch, err := ParseAck(line)
	if err != nil || seq != 2 || epoch != 2 {
		t.Fatalf("poison ack = %q (seq=%d epoch=%d err=%v), want the replica's seq and higher epoch", line, seq, epoch, err)
	}
	if err := <-runErr; !errors.Is(err, ErrStalePrimary) {
		t.Fatalf("Run = %v, want ErrStalePrimary", err)
	}
	if len(target.applied) != 0 || target.last != 2 {
		t.Fatalf("stale session mutated the target: applied=%v last=%d", target.applied, target.last)
	}
	prim.Close()

	// A lower-epoch segment inside an otherwise-accepted session is
	// refused the same way (the "rejected ship" trigger).
	cli, prim = net.Pipe()
	target = &fakeTarget{last: 2, epoch: 2}
	runErr = make(chan error, 1)
	go func() { runErr <- Run(cli, target) }()
	br = bufio.NewReader(prim)
	readLine(br)
	io.WriteString(prim, TailHeader(3, 1, 2))
	prim.Write(epochSeg(t, 3, 1, conflicting).Raw)
	if line, _ := readLine(br); !strings.Contains(line, "epoch=2") {
		t.Fatalf("poison ack = %q", line)
	}
	if err := <-runErr; !errors.Is(err, ErrStalePrimary) {
		t.Fatalf("Run = %v, want ErrStalePrimary", err)
	}
	if len(target.applied) != 0 {
		t.Fatalf("stale segment applied: %v", target.applied)
	}
	prim.Close()

	// Control: the identical segment at the replica's own epoch applies.
	cli, prim = net.Pipe()
	target = &fakeTarget{last: 2, epoch: 2}
	runErr = make(chan error, 1)
	go func() { runErr <- Run(cli, target) }()
	br = bufio.NewReader(prim)
	readLine(br)
	io.WriteString(prim, TailHeader(3, 1, 2))
	prim.Write(epochSeg(t, 3, 2, conflicting).Raw)
	if line, _ := readLine(br); line != strings.TrimRight(ackLine(3, 2), "\n") {
		t.Fatalf("ack = %q", line)
	}
	prim.Close()
	<-runErr
	if target.last != 3 {
		t.Fatalf("same-epoch segment not applied: last=%d", target.last)
	}

	// An ERR refusal mentioning a stale epoch maps to ErrStalePrimary
	// so callers can distinguish it from ordinary refusals.
	cli, prim = net.Pipe()
	runErr = make(chan error, 1)
	go func() { runErr <- Run(cli, &fakeTarget{epoch: 2}) }()
	br = bufio.NewReader(prim)
	readLine(br)
	io.WriteString(prim, ErrLine("stale epoch: primary is at epoch 1, replica announced epoch 2"))
	prim.Close()
	if err := <-runErr; !errors.Is(err, ErrStalePrimary) {
		t.Fatalf("ERR refusal = %v, want ErrStalePrimary", err)
	}
}
