package server

import (
	"path/filepath"
	"strings"
	"testing"

	"boundschema/internal/workload"
)

// These are the regression tests for the missing-key-index bug the load
// harness found: server.New installed the count index but never the
// Section 6.1 key index, so the incremental commit path accepted
// duplicate key values and the corruption only surfaced when VERIFY ran
// the full checker. Every path that installs a directory into the
// applier (New, journal recovery, replica bootstrap) must leave key
// uniqueness enforced at COMMIT time.

func keyedServer(t *testing.T) (*Server, *client) {
	t.Helper()
	s := workload.WhitePagesSchema()
	s.DeclareKey("mail")
	srv := openServer(t, Options{Schema: s, Name: "whitepages+mailkey", Instance: workload.WhitePagesInstance(s)})
	return srv, dialClient(t, srv.Addr())
}

func addMailLines(uid, mail string) []string {
	return []string{
		"ADD uid=" + uid + ",ou=attLabs,o=att",
		"objectClass: person",
		"objectClass: online",
		"objectClass: top",
		"name: " + uid,
		"mail: " + mail,
		"COMMIT",
	}
}

func (c *client) expectKeyIllegal(lines ...string) {
	c.t.Helper()
	c.send("BEGIN")
	c.until()
	c.send(lines...)
	body, term := c.until()
	if term != "ILLEGAL" {
		c.t.Fatalf("duplicate-key COMMIT replied %q (body %q), want ILLEGAL", term, body)
	}
	found := false
	for _, l := range body {
		if strings.Contains(l, "key mail=") {
			found = true
		}
	}
	if !found {
		c.t.Fatalf("ILLEGAL body %q does not name the key violation", body)
	}
}

// TestKeyUniquenessEnforcedAtCommit proves the incremental path rejects
// duplicate key values at COMMIT time (not just under VERIFY), keeps
// the index current across commits, and releases values on delete.
func TestKeyUniquenessEnforcedAtCommit(t *testing.T) {
	_, c := keyedServer(t)

	// The Figure 1 instance already owns laks's mail values.
	c.expectKeyIllegal(addMailLines("dup", "laks@cs.concordia.ca")...)

	// The rejection rolled back cleanly and the instance stays verifiable.
	c.expectOK("VERIFY")

	// A fresh value commits; reusing it in the next transaction must be
	// caught by the updated index.
	c.expectOK("BEGIN")
	c.expectOK(addMailLines("fresh", "fresh@example.org")...)
	c.expectKeyIllegal(addMailLines("dup2", "fresh@example.org")...)

	// Deleting the owner releases the value for reuse.
	c.expectOK("BEGIN")
	c.expectOK("DELETE uid=fresh,ou=attLabs,o=att", "COMMIT")
	c.expectOK("BEGIN")
	c.expectOK(addMailLines("reuse", "fresh@example.org")...)
	c.expectOK("VERIFY")
}

// TestKeyIndexSurvivesJournalRecovery restarts a keyed server from its
// journal and requires that duplicates of both seed and replayed values
// are still rejected incrementally — the recovery path must rebuild the
// key index alongside the count index when it installs the recovered
// directory.
func TestKeyIndexSurvivesJournalRecovery(t *testing.T) {
	s := workload.WhitePagesSchema()
	s.DeclareKey("mail")
	journal := filepath.Join(t.TempDir(), "journal.ldif")

	srv := openServer(t, Options{Schema: s, Name: "whitepages+mailkey", Instance: workload.WhitePagesInstance(s), Journal: journal})
	c := dialClient(t, srv.Addr())
	c.expectOK("BEGIN")
	c.expectOK(addMailLines("alpha", "alpha@example.org")...)
	c.conn.Close()
	srv.Close()

	// Restart: replay the journal into a fresh Figure 1 instance.
	s2 := workload.WhitePagesSchema()
	s2.DeclareKey("mail")
	srv2 := openServer(t, Options{Schema: s2, Name: "whitepages+mailkey", Instance: workload.WhitePagesInstance(s2), Journal: journal})
	c2 := dialClient(t, srv2.Addr())

	c2.expectKeyIllegal(addMailLines("dupseed", "laks@cs.concordia.ca")...)
	c2.expectKeyIllegal(addMailLines("dupreplay", "alpha@example.org")...)
	c2.expectOK("BEGIN")
	c2.expectOK(addMailLines("beta", "beta@example.org")...)
	c2.expectOK("VERIFY")
}
