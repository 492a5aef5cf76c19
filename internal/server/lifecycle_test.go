package server

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"boundschema/internal/proto"
	"boundschema/internal/workload"
)

// startServerWithLimits is startServer with connection-lifecycle limits.
func startServerWithLimits(t *testing.T, l Limits) (*Server, string) {
	t.Helper()
	s := workload.WhitePagesSchema()
	srv, err := New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLimits(l)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// TestServerLineTooLong: a line over the 1 MiB scanner cap must produce
// "ERR line too long", not a silently vanished session.
func TestServerLineTooLong(t *testing.T) {
	srv, addr := startServerWithLimits(t, Limits{DrainTimeout: 200 * time.Millisecond})
	c := dialClient(t, addr)

	big := strings.Repeat("A", proto.MaxLineBytes+64*1024)
	if _, err := c.conn.Write([]byte(big + "\n")); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	// Half-close so the server's lingering drain sees EOF promptly.
	c.conn.(*net.TCPConn).CloseWrite()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to oversized line: %v", err)
	}
	if !strings.HasPrefix(line, "ERR ") || !strings.Contains(line, "line too long") {
		t.Fatalf("oversized line reply = %q", line)
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Errorf("session not closed after oversized line")
	}
	if n := srv.metrics.LinesTooLong.Load(); n != 1 {
		t.Errorf("lines_too_long = %d, want 1", n)
	}
}

// TestServerIdleTimeout: a session that sends nothing is cut with an
// explicit error once the idle deadline passes.
func TestServerIdleTimeout(t *testing.T) {
	srv, addr := startServerWithLimits(t, Limits{
		IdleTimeout:  80 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
	})
	c := dialClient(t, addr)

	// A command inside the window works and re-arms the deadline.
	c.expectOK("STAT")

	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("no idle-timeout reply: %v", err)
	}
	if !strings.HasPrefix(line, "ERR ") || !strings.Contains(line, "idle timeout") {
		t.Fatalf("idle-timeout reply = %q", line)
	}
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Errorf("session not closed after idle timeout")
	}
	if n := srv.metrics.IdleTimeouts.Load(); n != 1 {
		t.Errorf("idle_timeouts = %d, want 1", n)
	}
}

// TestServerReadTimeout: a peer trickling a partial line forever is cut
// by the per-read deadline even without an idle timeout.
func TestServerReadTimeout(t *testing.T) {
	_, addr := startServerWithLimits(t, Limits{
		ReadTimeout:  80 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
	})
	c := dialClient(t, addr)
	if _, err := c.conn.Write([]byte("SEA")); err != nil { // no newline
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("no read-timeout reply: %v", err)
	}
	if !strings.HasPrefix(line, "ERR ") {
		t.Fatalf("read-timeout reply = %q", line)
	}
}

// TestServerMaxConnsBackpressure: with MaxConns=1 a second session is not
// served until the first ends — its commands queue rather than error.
func TestServerMaxConnsBackpressure(t *testing.T) {
	srv, addr := startServerWithLimits(t, Limits{
		MaxConns:     1,
		DrainTimeout: 200 * time.Millisecond,
	})
	c1 := dialClient(t, addr)
	c1.expectOK("STAT") // c1's session now owns the only slot

	c2 := dialClient(t, addr)
	c2.send("STAT")
	// The command must NOT be answered while c1 holds the slot.
	c2.conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := c2.r.ReadString('\n'); err == nil {
		t.Fatalf("second session served beyond MaxConns=1")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("unexpected read error while throttled: %v", err)
	}

	// Releasing c1 lets c2's queued command through.
	c1.expectOK("QUIT")
	c2.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		line, err := c2.r.ReadString('\n')
		if err != nil {
			t.Fatalf("throttled session never served after slot freed: %v", err)
		}
		if strings.TrimRight(line, "\n") == "OK" {
			break
		}
	}
	if n := srv.metrics.ConnsThrottled.Load(); n != 1 {
		t.Errorf("throttled = %d, want 1", n)
	}
}

// TestNextAcceptDelay: the accept backoff doubles from 5ms and caps at 1s,
// as in net/http.Server.Serve.
func TestNextAcceptDelay(t *testing.T) {
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond, 160 * time.Millisecond,
		320 * time.Millisecond, 640 * time.Millisecond, time.Second, time.Second,
	}
	d := time.Duration(0)
	for i, w := range want {
		d = nextAcceptDelay(d)
		if d != w {
			t.Fatalf("step %d: delay = %v, want %v", i, d, w)
		}
	}
}

// TestServerCloseDrainsBlockedSessions: Close must return within roughly
// the drain timeout even when clients sit idle, and tell them why.
func TestServerCloseDrainsBlockedSessions(t *testing.T) {
	srv, addr := startServerWithLimits(t, Limits{DrainTimeout: 100 * time.Millisecond})
	c := dialClient(t, addr)
	c.expectOK("STAT") // session is up and now blocked reading

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close took %v with an idle client", took)
	}
	c.conn.SetReadDeadline(time.Now().Add(time.Second))
	line, err := c.r.ReadString('\n')
	if err == nil && !strings.Contains(line, "shutting down") {
		t.Errorf("drain reply = %q", line)
	}
}
