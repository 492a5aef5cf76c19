package server

import (
	"bytes"
	"testing"

	"boundschema/internal/repl"
)

// FuzzScanJournal throws arbitrary bytes at the recovery scanner — the
// same code path that validates a replica's incoming stream once it is
// on disk. The scanner must never panic, its verdict must be internally
// consistent, and rescanning the clean prefix it identifies must be
// idempotent (recovery truncates to that prefix and trusts a second
// scan to agree).
func FuzzScanJournal(f *testing.F) {
	p1 := []byte("dn: uid=a,o=att\nchangetype: add\nobjectClass: person\n\n")
	p2 := []byte("dn: uid=b,o=att\nchangetype: add\nobjectClass: person\n\n")
	valid := append(append([]byte{}, repl.RawSegment(1, p1, 1)...), repl.RawSegment(2, p2, 1)...)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), []byte("dn: uid=torn,o=att\nchangetype:")...))
	f.Add(append(append([]byte{}, p1...), []byte("# commit\n")...))                           // bare marker: damaged
	f.Add(append(append([]byte{}, p1...), []byte("# commit seq=1 len=54 crc=00000000\n")...)) // epoch-less marker: damaged
	f.Add([]byte("# commit seq=1 len=999 crc=deadbeef epoch=1\n"))                            // marker vouching for missing bytes
	// A crash during the first-ever append: no complete marker anywhere.
	f.Add(p1)
	f.Add(append(append([]byte{}, p1...), []byte("# com")...))
	f.Add(p1[:len(p1)/2])
	corrupt := append([]byte{}, valid...)
	corrupt[10] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte("x# commit seq="))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr := scanJournal(data)
		if sr.tornBytes < 0 || sr.tornBytes > int64(len(data)) {
			t.Fatalf("torn bytes %d outside [0, %d]", sr.tornBytes, len(data))
		}
		if len(sr.txns) > 0 && sr.firstSeq > sr.lastSeq {
			t.Fatalf("sequence range inverted: first=%d last=%d", sr.firstSeq, sr.lastSeq)
		}
		if sr.corrupt {
			if sr.corruptReason == "" {
				t.Fatal("corrupt verdict without a reason")
			}
			return // no clean prefix to trust
		}
		// Every verified payload must sit inside the input and carry a
		// nonzero sequence number.
		for _, jt := range sr.txns {
			if jt.seq == 0 {
				t.Fatal("verified transaction with sequence number 0")
			}
			if !bytes.Contains(data, jt.payload) {
				t.Fatalf("verified payload of seq=%d is not a substring of the input", jt.seq)
			}
		}
		clean := data[:int64(len(data))-sr.tornBytes]
		sr2 := scanJournal(clean)
		if sr2.corrupt {
			t.Fatalf("clean prefix scanned corrupt: %s", sr2.corruptReason)
		}
		if sr2.tornBytes != 0 {
			t.Fatalf("clean prefix still has %d torn bytes", sr2.tornBytes)
		}
		if len(sr2.txns) != len(sr.txns) || sr2.lastSeq != sr.lastSeq {
			t.Fatalf("rescan disagrees: records %d->%d lastSeq %d->%d",
				len(sr.txns), len(sr2.txns), sr.lastSeq, sr2.lastSeq)
		}
		if len(sr.txns) == 0 && sr.tornBytes != int64(len(data)) {
			t.Fatalf("no record verified yet only %d of %d bytes are torn", sr.tornBytes, len(data))
		}
	})
}
