package proto

import (
	"bufio"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// txLine renders a parsed transaction-body line back to the wire.
func txLine(l TxLine) string {
	switch {
	case l.Attr:
		return l.Name + ": " + l.Value
	case l.Cmd == "MOVE" && l.Dest == "":
		return "MOVE " + l.DN + " ->"
	case l.Cmd == "MOVE":
		return "MOVE " + l.DN + " -> " + l.Dest
	case l.Cmd == "ADD", l.Cmd == "DELETE":
		return l.Cmd + " " + l.DN
	}
	return l.Cmd
}

// reparse splits a rendered request line the way a session does.
func reparse(t *testing.T, rendered, want string) string {
	t.Helper()
	cmd, rest := Split(strings.TrimSpace(rendered))
	if cmd != want {
		t.Fatalf("%q renders as a %s line", rendered, cmd)
	}
	return rest
}

func TestParseTxLine(t *testing.T) {
	for _, tc := range []struct {
		line   string
		adding bool
		want   TxLine
	}{
		{"ADD uid=hr lead,ou=human resources,o=att", false, TxLine{Cmd: "ADD", DN: "uid=hr lead,ou=human resources,o=att"}},
		{"delete uid=x,o=att", false, TxLine{Cmd: "DELETE", DN: "uid=x,o=att"}},
		{"MOVE ou=a b,o=att -> ou=c d,o=att", false, TxLine{Cmd: "MOVE", DN: "ou=a b,o=att", Dest: "ou=c d,o=att"}},
		{"MOVE ou=a,o=att ->", false, TxLine{Cmd: "MOVE", DN: "ou=a,o=att"}},
		{"COMMIT", false, TxLine{Cmd: "COMMIT"}},
		{"abort", true, TxLine{Cmd: "ABORT"}},
		{"", false, TxLine{}},
		{"mail:  a@b:c ", true, TxLine{Attr: true, Name: "mail", Value: "a@b:c"}},
	} {
		got, err := ParseTxLine(tc.line, tc.adding, 0, 0)
		if err != nil || got != tc.want {
			t.Errorf("ParseTxLine(%q, %v) = %+v, %v; want %+v", tc.line, tc.adding, got, err, tc.want)
		}
	}
}

// FuzzProto: request parsing never panics; every accepted SEARCH, COUNT
// or transaction-body line renders back to a line that parses to the
// same value; and ReadReply on arbitrary bytes returns an error or a
// reply ending in OK, ILLEGAL or ERR, which relays to bytes that read
// back as the same reply. A transaction-body line read after ops
// operations and size bytes is refused as too big only past MaxTxOps or
// MaxTxBytes, and is never taken past them.
func FuzzProto(f *testing.F) {
	// Lines at and one past each cap.
	f.Add("DELETE a", uint16(MaxTxOps-1), uint32(0))
	f.Add("DELETE a", uint16(MaxTxOps), uint32(0))
	f.Add("COMMIT", uint16(MaxTxOps), uint32(MaxTxBytes))
	f.Add("a: b", uint16(0), uint32(MaxTxBytes-4))
	f.Add("a: b", uint16(0), uint32(MaxTxBytes-3))
	for _, seed := range []string{
		"SEARCH (objectClass=person)",
		"SEARCH (name=laks lakshmanan) base=ou=Human Resources,o=acme limit=3",
		"search (a=b\\29) base= limit=007",
		"SEARCH (a=b) base=x limit=1 limit=2",
		"COUNT person",
		"COUNT person child base=o=org0",
		"count child base= x",
		"ADD uid=x,o=org0",
		"DELETE ",
		"MOVE uid=x,o=org0 -> ou=u1,o=org0",
		"MOVE uid=x - -> b -> c",
		"MOVE uid=x,o=org0 ->",
		"objectClass: person",
		"name:  a b ",
		"ADD: x",
		"COMMIT trailing",
		"OK\n",
		"uid=a\nuid=b\nOK\n",
		"# violation\nILLEGAL\n",
		"ERR no entry \"x\"\r\n",
		"ERR \n",
		"ERR\nOK",
		"partial",
		// Filters at and one past MaxDepth and MaxNodes: the grammar
		// frames them alike, and filter.Parse refuses the second of each.
		"SEARCH " + strings.Repeat("(!", MaxDepth-1) + "(a=b)" + strings.Repeat(")", MaxDepth-1),
		"SEARCH " + strings.Repeat("(!", MaxDepth) + "(a=b)" + strings.Repeat(")", MaxDepth),
		"SEARCH (|" + strings.Repeat("(a=b)", MaxNodes-1) + ")",
		"SEARCH (|" + strings.Repeat("(a=b)", MaxNodes) + ")",
	} {
		f.Add(seed, uint16(0), uint32(0))
	}
	f.Fuzz(func(t *testing.T, s string, ops uint16, size uint32) {
		line := strings.TrimSpace(s)
		cmd, rest := Split(line)
		switch cmd {
		case "SEARCH":
			if a, err := ParseSearchArgs(rest); err == nil {
				b, err := ParseSearchArgs(reparse(t, a.Line(), "SEARCH"))
				if err != nil || b != a {
					t.Fatalf("%q parsed to %+v, rendered %q, reparsed to %+v (%v)", line, a, a.Line(), b, err)
				}
			}
		case "COUNT":
			if a, err := ParseCountArgs(rest); err == nil {
				b, err := ParseCountArgs(reparse(t, a.Line(), "COUNT"))
				if err != nil || b != a {
					t.Fatalf("%q parsed to %+v, rendered %q, reparsed to %+v (%v)", line, a, a.Line(), b, err)
				}
			}
		}
		for _, adding := range []bool{false, true} {
			if l, err := ParseTxLine(line, adding, 0, 0); err == nil {
				back, err := ParseTxLine(strings.TrimSpace(txLine(l)), adding, 0, 0)
				if err != nil || back != l {
					t.Fatalf("%q parsed to %+v, rendered %q, reparsed to %+v (%v)", line, l, txLine(l), back, err)
				}
			}
			l, err := ParseTxLine(line, adding, int(ops), int(size))
			past := int(ops) >= MaxTxOps && l.Cmd != "" || int(size)+len(line) > MaxTxBytes
			if errors.Is(err, errTxTooBig) && !past ||
				err == nil && past && line != "" && l.Cmd != "COMMIT" && l.Cmd != "ABORT" {
				t.Fatalf("%q after %d operations and %d bytes: %v", line, ops, size, err)
			}
		}

		rep, err := ReadReply(bufio.NewReader(strings.NewReader(s)))
		if err != nil {
			return
		}
		switch rep.Term {
		case "OK", "ILLEGAL", "ERR":
		default:
			t.Fatalf("ReadReply(%q) ended in %q", s, rep.Term)
		}
		var buf strings.Builder
		w := NewWriter(&buf)
		w.Relay(rep)
		w.Flush()
		back, err := ReadReply(bufio.NewReader(strings.NewReader(buf.String())))
		if err != nil || !reflect.DeepEqual(back, rep) {
			t.Fatalf("reply %+v relayed as %q, read back as %+v (%v)", rep, buf.String(), back, err)
		}
	})
}
