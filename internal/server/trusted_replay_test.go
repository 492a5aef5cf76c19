package server

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/repl"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

// These are the adversarial cases for trusted-record replay: journal
// records whose checksummed markers verify — so recovery applies them
// without per-transaction Figure 5 checks — but whose transactions no
// legitimate primary would have acknowledged. The trusted path's safety
// argument is the terminal full legality proof; these tests pin that a
// doctored journal cannot buy its way past it with valid CRCs.

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

// TestTrustedReplayRefusesDoctoredJournal: individually-illegal
// transactions with valid CRCs must not recover into a served instance.
func TestTrustedReplayRefusesDoctoredJournal(t *testing.T) {
	cases := []struct {
		name    string
		records []string
		wantErr string // substring of the refusal
	}{
		{
			// Two hosts sharing the Section 6.1 ipAddress key: each
			// record applies cleanly in isolation, only the key check —
			// skipped on the trusted path — would reject the second.
			name:    "duplicate-key",
			records: []string{hostRecord("cn=h1,o=net", "10.9.0.1"), hostRecord("cn=h2,o=net", "10.9.0.1")},
			wantErr: "fails the full legality check",
		},
		{
			// A child under a host breaks the host-is-a-leaf forbidden
			// relationship; only the Figure 5 insert check would see it.
			name:    "host-child",
			records: []string{hostRecord("cn=h1,o=net", "10.9.0.1"), hostRecord("cn=h2,cn=h1,o=net", "10.9.0.2")},
			wantErr: "fails the full legality check",
		},
		{
			// The same DN inserted twice fails structurally inside
			// Apply itself, before the terminal proof.
			name:    "duplicate-dn",
			records: []string{hostRecord("cn=h1,o=net", "10.9.0.1"), hostRecord("cn=h1,o=net", "10.9.0.2")},
			wantErr: "replay",
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
			if rep.Quarantined {
				t.Fatalf("doctored-but-checksum-valid journal was quarantined as corruption: %+v", rep)
			}
			if rep.RecordsTrusted == 0 {
				t.Fatalf("no record went through the trusted path; the test lost its target: %+v", rep)
			}
			if rep.Legal {
				t.Fatalf("report claims the recovered instance is legal: %+v", rep)
			}
		})
	}
}

// TestTrustedReplayMatchesLiveCommits: a journal replayed through the
// trusted fast path must recover the instance, byte for byte, that the
// same transactions produce when committed live through CommitTx — the
// path that runs every Figure 5 check.
func TestTrustedReplayMatchesLiveCommits(t *testing.T) {
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
	if rep.RecordsTrusted != len(records) || rep.RecordsReplayed != len(records) {
		t.Fatalf("replay applied %d/%d records, %d trusted", rep.RecordsReplayed, len(records), rep.RecordsTrusted)
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
		t.Fatalf("trusted replay and live commits diverged:\n--- replayed ---\n%s\n--- live ---\n%s", got, want)
	}
}
