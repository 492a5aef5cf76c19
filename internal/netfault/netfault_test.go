package netfault

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// pipePair builds a wrapped client conn talking to a plain server conn
// over a real TCP loopback socket (net.Pipe has no kernel buffer, which
// would deadlock the cut tests).
func pipePair(t *testing.T, f *Fault) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	cli, err := f.dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	srv := <-done
	if srv == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

func readN(t *testing.T, c net.Conn, n int, timeout time.Duration) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return buf
}

func TestTransparentAndOpCount(t *testing.T) {
	f := New()
	cli, srv := pipePair(t, f)
	if _, err := cli.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := readN(t, srv, 5, time.Second); string(got) != "hello" {
		t.Fatalf("server read %q", got)
	}
	go srv.Write([]byte("world"))
	if got := readN(t, cli, 5, time.Second); string(got) != "world" {
		t.Fatalf("client read %q", got)
	}
	if f.OpCount() < 2 {
		t.Fatalf("op count = %d, want >= 2 (one write, one read)", f.OpCount())
	}
}

func TestDropAtOp(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 2, Kind: Drop})
	cli, _ := pipePair(t, f)
	if _, err := cli.Write([]byte("a")); err != nil { // op 1: fine
		t.Fatalf("op 1: %v", err)
	}
	if _, err := cli.Write([]byte("b")); err == nil { // op 2: dropped
		t.Fatal("op 2 should have dropped the conn")
	}
	if f.Dropped() != 1 {
		t.Fatalf("dropped = %d", f.Dropped())
	}
	// One-shot: a new conn is untouched.
	cli2, srv2 := pipePair(t, f)
	if _, err := cli2.Write([]byte("cd")); err != nil {
		t.Fatalf("post-fire write: %v", err)
	}
	readN(t, srv2, 2, time.Second)
}

func TestDelayAtOp(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 1, Kind: Delay, Dur: 120 * time.Millisecond})
	cli, srv := pipePair(t, f)
	start := time.Now()
	cli.Write([]byte("x"))
	readN(t, srv, 1, time.Second)
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("write completed in %v, want >= 120ms delay", d)
	}
}

func TestDupWrite(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 1, Kind: Dup})
	cli, srv := pipePair(t, f)
	cli.Write([]byte("ACK\n"))
	if got := readN(t, srv, 8, time.Second); string(got) != "ACK\nACK\n" {
		t.Fatalf("server read %q, want the bytes twice", got)
	}
}

func TestCutOutboundHoldsWritesUntilHeal(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 1, Kind: CutOutbound})
	cli, srv := pipePair(t, f)
	wrote := make(chan error, 1)
	go func() {
		_, err := cli.Write([]byte("held"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write completed during cut (err=%v)", err)
	case <-time.After(80 * time.Millisecond):
	}
	f.Heal()
	if err := <-wrote; err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if got := readN(t, srv, 4, time.Second); string(got) != "held" {
		t.Fatalf("server read %q", got)
	}
}

func TestCutInboundHoldsArrivedBytesUntilHeal(t *testing.T) {
	f := New()
	cli, srv := pipePair(t, f)
	// Arm the cut on the first (read) op, then let the peer's bytes
	// arrive while the cut holds.
	f.SetScript(Point{Op: 0, Kind: CutInbound})
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 4)
		if n, err := cli.Read(buf); err == nil {
			got <- buf[:n]
		} else {
			got <- nil
		}
	}()
	time.Sleep(30 * time.Millisecond) // the read is parked on the cut
	srv.Write([]byte("late"))
	select {
	case b := <-got:
		t.Fatalf("bytes %q delivered during inbound cut", b)
	case <-time.After(80 * time.Millisecond):
	}
	f.Heal()
	select {
	case b := <-got:
		if string(b) != "late" {
			t.Fatalf("delivered %q", b)
		}
	case <-time.After(time.Second):
		t.Fatal("held bytes not delivered after heal")
	}
}

func TestPartitionBlocksDial(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 1, Kind: Partition})
	cli, _ := pipePair(t, f)
	go cli.Write([]byte("x")) // op 1 arms the partition and stalls
	deadline := time.Now().Add(time.Second)
	for !f.Partitioned() {
		if time.Now().After(deadline) {
			t.Fatal("partition never armed")
		}
		time.Sleep(time.Millisecond)
	}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	start := time.Now()
	if _, err := f.dial(ln.Addr().String(), 60*time.Millisecond); err == nil {
		t.Fatal("dial succeeded through a partition")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("dial error = %v, want a timeout", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("dial failed fast; it should hang until the timeout like a lost SYN")
	}
	f.Heal()
	c, err := f.dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

func TestSlowReader(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 1, Kind: SlowReader, Dur: 50 * time.Millisecond})
	cli, srv := pipePair(t, f)
	srv.Write([]byte("abcd"))
	start := time.Now()
	readN(t, cli, 2, time.Second) // two reads, >= 50ms stall each
	readN(t, cli, 2, time.Second)
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Fatalf("reads completed in %v, want two >=50ms stalls", d)
	}
	f.Heal()
	srv.Write([]byte("ef"))
	start = time.Now()
	readN(t, cli, 2, time.Second)
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("read after heal took %v, slow-reader not lifted", d)
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 0, Kind: Delay, Dur: time.Millisecond})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln := f.Listener(raw)
	defer ln.Close()
	var sb strings.Builder
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		sb.Write(b)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Write([]byte("via listener"))
	c.Close()
	<-done
	if sb.String() != "via listener" {
		t.Fatalf("accepted conn read %q", sb.String())
	}
	if f.OpCount() == 0 {
		t.Fatal("accepted conn ops not counted")
	}
}

func TestCloseUnblocksHeldWrite(t *testing.T) {
	f := New()
	f.SetScript(Point{Op: 1, Kind: Partition})
	cli, _ := pipePair(t, f)
	wrote := make(chan error, 1)
	go func() {
		_, err := cli.Write(bytes.Repeat([]byte("x"), 16))
		wrote <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cli.Close() // the hub's onDrop path: closing must free the writer
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("held write reported success after close")
		}
	case <-time.After(time.Second):
		t.Fatal("close left the held write blocked")
	}
}

// Dropped returns how many connections the script has closed.
func (f *Fault) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Partitioned reports whether any directional cut is active.
func (f *Fault) Partitioned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cutIn || f.cutOut || f.slow > 0
}
