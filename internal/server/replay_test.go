package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// These are the adversarial cases for journal replay: records whose
// checksummed markers verify but whose transactions no legitimate
// primary would have acknowledged. Replay applies every record through
// the same Figure 5 Δ-checks as a live COMMIT, so a doctored journal
// cannot buy its way into a served instance with valid CRCs: the first
// illegal record stops recovery with a one-line refusal naming it.

// netInstance is a minimal legal netpolicy instance whose DNs the
// doctored records below can target deterministically.
func netInstance(t *testing.T, s *core.Schema) *dirtree.Directory {
	t.Helper()
	d := dirtree.New(s.Registry)
	dom, err := d.AddRoot("o=net", "adminDomain", "top")
	if err != nil {
		t.Fatal(err)
	}
	dom.AddValue("name", dirtree.String("net"))
	return d
}

// doctoredJournal renders hand-crafted add records with genuine
// checksummed markers — exactly what a tampered-but-CRC-consistent
// journal looks like.
func doctoredJournal(payloads ...string) []byte {
	var buf bytes.Buffer
	for i, p := range payloads {
		buf.WriteString(p)
		buf.WriteString(repl.MarkerLine(uint64(i+1), []byte(p), 1))
	}
	return buf.Bytes()
}

func hostRecord(dn, ip string) string {
	return "dn: " + dn + "\nchangetype: add\nobjectClass: host\nobjectClass: netElement\nobjectClass: top\nipAddress: " + ip + "\n\n"
}

// TestReplayRefusesDoctoredJournal: individually-illegal transactions
// with valid CRCs must not recover into a served instance.
func TestReplayRefusesDoctoredJournal(t *testing.T) {
	cases := []struct {
		name    string
		records []string
		wantErr string // substring of the refusal
	}{
		{
			// Two hosts sharing the Section 6.1 ipAddress key: each
			// record applies cleanly in isolation, the key check refuses
			// the second.
			name:    "duplicate-key",
			records: []string{hostRecord("cn=h1,o=net", "10.9.0.1"), hostRecord("cn=h2,o=net", "10.9.0.1")},
			wantErr: "replay refused: record seq=2 is illegal: duplicate-key at cn=h2,o=net",
		},
		{
			// A child under a host breaks the host-is-a-leaf forbidden
			// relationship, which the Figure 5 insert check sees.
			name:    "host-child",
			records: []string{hostRecord("cn=h1,o=net", "10.9.0.1"), hostRecord("cn=h2,cn=h1,o=net", "10.9.0.2")},
			wantErr: "replay refused: record seq=2 is illegal: forbidden-relationship [host ⇥ch top]",
		},
		{
			// The same DN inserted twice fails structurally inside
			// Apply itself.
			name:    "duplicate-dn",
			records: []string{hostRecord("cn=h1,o=net", "10.9.0.1"), hostRecord("cn=h1,o=net", "10.9.0.2")},
			wantErr: "replay seq=2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := workload.NetPolicySchema()
			srv, err := New(s, "netpolicy", netInstance(t, s))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "journal.ldif")
			if err := os.WriteFile(path, doctoredJournal(tc.records...), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := srv.Fsck(path)
			if err == nil {
				t.Fatalf("recovery accepted a doctored journal (%s)", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("refusal = %v, want mention of %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("refusal is not one line: %q", err)
			}
			if rep.Quarantined {
				t.Fatalf("doctored-but-checksum-valid journal was quarantined as corruption: %+v", rep)
			}
			if rep.RecordsReplayed != 1 {
				t.Fatalf("replay applied %d records, want only the legal seq=1: %+v", rep.RecordsReplayed, rep)
			}
			if rep.Legal {
				t.Fatalf("report claims the recovered instance is legal: %+v", rep)
			}
		})
	}
}

// TestReplicaRefusesIllegalSegment: a live replica handed a CRC-valid but
// illegal segment refuses it — never ACKs it, never serves it, degrades
// with one parseable reason, and will not be promoted. The test plays
// the primary over an in-memory pipe the replica dials.
func TestReplicaRefusesIllegalSegment(t *testing.T) {
	cli, prim := net.Pipe()
	t.Cleanup(func() { prim.Close() })
	prim.SetDeadline(time.Now().Add(10 * time.Second))
	dialed := false // touched only by the replica's streaming goroutine
	replica := openServer(t, Options{Journal: crashJournalPath, FS: vfs.NewFault(), ReplicaOf: "pipe",
		Dialer: func(string, time.Duration) (net.Conn, error) {
			if dialed {
				return nil, errors.New("primary gone")
			}
			dialed = true
			return cli, nil
		}})
	caddr := replica.Addr()

	pbr := bufio.NewReader(prim)
	if hello, err := pbr.ReadString('\n'); err != nil || hello != repl.HelloLine(0, 1) {
		t.Fatalf("replica opened with %q (%v)", hello, err)
	}
	io.WriteString(prim, repl.TailHeader(1, 0, 1))
	person := func(dn string) string {
		return "dn: " + dn + "\nchangetype: add\nobjectClass: person\nobjectClass: top\nname: x\n\n"
	}
	legalDN, illegalDN := "uid=r1,ou=attLabs,o=att", "uid=r2,uid=r1,ou=attLabs,o=att"
	prim.Write(repl.RawSegment(1, []byte(person(legalDN)), 1))
	if ack, err := pbr.ReadString('\n'); err != nil || ack != repl.AckLine(1, 1) {
		t.Fatalf("legal segment answered %q (%v), want its ACK", ack, err)
	}
	// A person under a person breaks person ⇥ch top.
	prim.Write(repl.RawSegment(2, []byte(person(illegalDN)), 1))
	if line, err := pbr.ReadString('\n'); err != io.EOF {
		t.Fatalf("illegal segment answered %q (%v), want the session closed unacknowledged", line, err)
	}

	if got := commitSeqOf(replica); got != 1 {
		t.Fatalf("replica commitSeq = %d, want 1", got)
	}
	c := dialClient(t, caddr)
	c.expectOK("GET " + legalDN)
	c.send("GET " + illegalDN)
	if _, term := c.until(); !strings.HasPrefix(term, "ERR ") {
		t.Fatalf("GET of the refused entry = %q, want ERR", term)
	}
	c.expectOK("CHECK")
	want := "read-only degraded: replicated transaction seq=2 is illegal here: forbidden-relationship [person ⇥ch top]"
	if body := c.expectOK("STAT"); !strings.HasPrefix(metricLine(t, body, "read-only degraded:"), want) {
		t.Fatalf("STAT = %v, want a line starting %q", body, want)
	}
	c.send("PROMOTE")
	if _, term := c.until(); !strings.HasPrefix(term, "ERR replica is read-only degraded: replicated transaction seq=2 is illegal here: ") {
		t.Fatalf("PROMOTE of the degraded replica = %q, want a one-line refusal", term)
	}
}

// TestReplayMatchesLiveCommits: a journal replayed at recovery must
// recover the instance, byte for byte, that the same transactions
// produce when committed live through CommitTx.
func TestReplayMatchesLiveCommits(t *testing.T) {
	records := []string{
		hostRecord("cn=h1,o=net", "10.9.0.1"),
		hostRecord("cn=h2,o=net", "10.9.0.2"),
		"dn: cn=ops,o=net\nchangetype: add\nobjectClass: person\nobjectClass: top\nname: ops\n\n",
		"dn: cn=h2,o=net\nchangetype: delete\n\n",
	}
	s := workload.NetPolicySchema()
	snapshot := func(srv *Server) string {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := srv.Snapshot(w); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return buf.String()
	}

	replayed, err := New(s, "netpolicy", netInstance(t, s))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ldif")
	if err := os.WriteFile(path, doctoredJournal(records...), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := replayed.Fsck(path)
	if err != nil {
		t.Fatalf("recovery of a legitimate journal failed: %v", err)
	}
	if rep.RecordsReplayed != len(records) {
		t.Fatalf("replay applied %d/%d records", rep.RecordsReplayed, len(records))
	}

	live, err := New(s, "netpolicy", netInstance(t, s))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range records {
		recs, err := ldif.NewReader(strings.NewReader(p)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		tx, err := txn.FromRecords(recs, s.Registry)
		if err != nil {
			t.Fatal(err)
		}
		if report, err := live.CommitTx(tx); err != nil || !report.Legal() {
			t.Fatalf("live commit %d: err=%v report=%v", i, err, report)
		}
	}

	if got, want := snapshot(replayed), snapshot(live); got != want {
		t.Fatalf("replay and live commits diverged:\n--- replayed ---\n%s\n--- live ---\n%s", got, want)
	}
}
