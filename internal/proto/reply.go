package proto

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// maxLineBytes caps one request line; a longer line is refused with one
// ERR line and the connection closes.
const maxLineBytes = 1024 * 1024

// maxTxOps and maxTxBytes cap one transaction: its ADD, DELETE and MOVE
// lines, and the bytes of its trimmed body lines. ParseTxLine refuses
// the line that would pass either with a TooComplex refusal, which drops
// the transaction; the session goes on.
const maxTxOps, maxTxBytes = 10000, 4 * maxLineBytes

// MaxDepth and MaxNodes cap a SEARCH filter and a QUERY expression, whose
// evaluation costs their size times the entries they range over:
// filter.Parse and hquery.Parse refuse deeper nesting, or more nodes (a
// query's filters included), with a TooComplex refusal.
const MaxDepth, MaxNodes = 32, 256

// NewScanner reads request lines from r, up to maxLineBytes each.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return sc
}

// RefuseTooLong answers a line over maxLineBytes (the scanner stopped
// with bufio.ErrTooLong) with the protocol's one ERR line, then drains
// what the peer is still sending for up to 500 ms, so the reply is not
// destroyed by a TCP reset carrying unread data (the trick net/http
// uses for unread request bodies). The caller closes the connection.
func RefuseTooLong(w *Writer, conn net.Conn) {
	w.Err(fmt.Sprintf("%s (max %d bytes)", TooLong, maxLineBytes))
	w.Flush()
	conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	io.Copy(io.Discard, conn)
}

// Reply is one framed reply: the payload lines and the terminator.
type Reply struct {
	Lines []string
	Term  string // "OK", "ILLEGAL" or "ERR"
	Err   string // the message after "ERR "
}

// OK reports a clean terminator.
func (r Reply) OK() bool { return r.Term == "OK" }

// ReadReply reads one reply. Every reply, the mid-transaction refusals
// included, ends in exactly one terminator line: this is the protocol's
// only framing rule.
func ReadReply(r *bufio.Reader) (Reply, error) {
	var rep Reply
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return rep, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "OK", line == "ILLEGAL":
			rep.Term = line
			return rep, nil
		case strings.HasPrefix(line, "ERR "):
			rep.Term, rep.Err = "ERR", line[len("ERR "):]
			return rep, nil
		}
		rep.Lines = append(rep.Lines, line)
	}
}

// Writer frames replies onto a buffered stream. Term is the terminator
// of the last reply written, for the caller's metrics.
type Writer struct {
	*bufio.Writer
	Term string
}

// NewWriter buffers replies to w; the caller flushes.
func NewWriter(w io.Writer) *Writer { return &Writer{Writer: bufio.NewWriter(w)} }

// Line writes payload lines.
func (w *Writer) Line(lines ...string) {
	for _, l := range lines {
		w.WriteString(l)
		w.WriteByte('\n')
	}
}

// Comment writes one "# " payload line: a violation before ILLEGAL, or
// a report line of an administrative command.
func (w *Writer) Comment(s string) {
	w.WriteString("# ")
	w.Line(s)
}

// OK terminates a reply with OK.
func (w *Writer) OK() { w.Term = "OK"; w.Line("OK") }

// Illegal terminates a reply with ILLEGAL.
func (w *Writer) Illegal() { w.Term = "ILLEGAL"; w.Line("ILLEGAL") }

// Err terminates a reply with ERR, folding newlines in msg to " | " so
// the refusal stays one line.
func (w *Writer) Err(msg string) {
	w.Term = "ERR"
	w.WriteString("ERR ")
	w.Line(strings.ReplaceAll(msg, "\n", " | "))
}

// Relay writes a reply read from another node verbatim.
func (w *Writer) Relay(r Reply) {
	w.Line(r.Lines...)
	if r.Term == "ERR" {
		w.Err(r.Err)
		return
	}
	w.Term = r.Term
	w.Line(r.Term)
}

// Conn is the client end of one protocol connection. It is not safe for
// concurrent use.
type Conn struct {
	c net.Conn
	r *bufio.Reader
	w *Writer
}

// NewConn speaks the protocol over c.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReader(c), w: NewWriter(c)}
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// Send writes request lines without reading a reply (transaction-body
// lines get none).
func (c *Conn) Send(lines ...string) error {
	c.w.Line(lines...)
	return c.w.Flush()
}

// Read reads one reply.
func (c *Conn) Read() (Reply, error) { return ReadReply(c.r) }

// Do sends one request line and reads its reply.
func (c *Conn) Do(line string) (Reply, error) {
	if err := c.Send(line); err != nil {
		return Reply{}, err
	}
	return c.Read()
}

// Txn runs BEGIN, the body and COMMIT, returning the COMMIT reply. A
// refused BEGIN (a write redirect on a replica, shutdown) is returned as
// is and the body is not sent. A body line that errs is answered at
// once and drops the transaction: that ERR then reads as the COMMIT's
// reply, and the lines after it are answered as top-level commands
// whose replies are still queued when Txn returns.
func (c *Conn) Txn(body []string) (Reply, error) {
	begin, err := c.Do("BEGIN")
	if err != nil || !begin.OK() {
		return begin, err
	}
	c.w.Line(body...) // a write error is sticky and surfaces at COMMIT's flush
	return c.Do("COMMIT")
}
