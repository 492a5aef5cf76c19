package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"boundschema/internal/ldif"
	"boundschema/internal/proto"
	"boundschema/internal/vfs"
)

// This file is the durable-commit path. The contract the protocol
// documents is: OK after COMMIT means the transaction is applied AND
// recorded in the journal (write + fsync) when journaling is on. A failed
// journal write therefore fails the COMMIT: the in-memory directory is
// rolled back and ERR is returned, so the client's view of durability
// never diverges from the disk. If the journal itself cannot be restored
// to a consistent prefix (or the rollback fails), the server degrades to
// read-only rather than serve state it cannot re-create after a restart.
//
// Every record carries a checksummed, sequence-numbered marker (see
// recover.go for the format and the recovery pipeline that validates
// it). All file I/O goes through the server's vfs.FS so tests can crash
// the "disk" at any operation and replay recovery.
//
// Long-lived servers compact with snapshot rotation: once the journal
// exceeds the configured threshold, the instance is written to
// <journal>.snapshot and the journal truncated. Recovery loads the
// snapshot (when present) before replaying the journal, so replay cost is
// bounded by the rotation threshold instead of the server's lifetime.

// journalFile is the subset of vfs.File the journal needs; tests inject
// failing implementations to exercise the non-durable-commit paths.
type journalFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// journal is the commit log of a running server. Once recovery has
// opened it, all file I/O and size accounting belong to the committer
// (groupcommit.go) on every journaled node, which takes the server's
// write lock only for failure rollback and quiescent work.
type journal struct {
	path     string
	snapPath string
	f        journalFile
	size     int64    // bytes currently in the live journal file
	failed   string   // non-empty: why the on-disk journal can no longer be trusted
	metrics  *Metrics // the owning server's
}

// append makes recs — complete records, in journal order — durable:
// write each, then one Sync for the lot. On failure the file is
// truncated back to the last durable record boundary, so the on-disk
// journal stays an exact prefix of acknowledged commits; if even that
// fails, failed records why and the caller degrades the server to
// read-only.
func (j *journal) append(recs ...[]byte) error {
	var n int64
	var err error
	for _, rec := range recs {
		if _, err = j.f.Write(rec); err != nil {
			break
		}
		n += int64(len(rec))
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.metrics.JournalErrors.Add(1)
		if terr := j.f.Truncate(j.size); terr != nil {
			j.failed = fmt.Sprintf("journal %s unrecoverable after failed write (%v; truncate: %v)", j.path, err, terr)
		}
		return err
	}
	j.size += n
	j.metrics.JournalBytes.Store(j.size)
	j.metrics.noteBatch(len(recs))
	return nil
}

// OpenJournal prepares the durable state at path by running the recovery
// pipeline (recover.go): load the compacted snapshot <path>.snapshot when
// one exists, proving it legal; scan the journal validating record
// checksums and sequence continuity; truncate a torn tail; quarantine
// corruption (refusing to serve); and replay the committed transactions
// through the Figure 5 Δ-checks. The base was proven legal, so by
// Theorem 4.2 the recovered instance is too, without a second full proof.
// Every future successful COMMIT is then appended as checksummed LDIF
// change records — so a restart with the same arguments reproduces the
// state. The journal's committer starts here, whatever the role.
func (s *Server) OpenJournal(path string) error {
	rep, err := s.recoverJournal(path)
	s.metrics.noteRecovery(rep)
	if err != nil {
		return err
	}
	s.startCommitter()
	return nil
}

// Rotate compacts the open journal into its snapshot immediately — the
// programmatic equivalent of the SNAPSHOT protocol command.
func (s *Server) Rotate() error {
	return s.atQuiescent(func() error {
		if s.journal == nil {
			return errors.New("no journal configured")
		}
		// Re-checked here, under the lock at the quiescent point: a batch
		// failure may have degraded the server while this request queued.
		if s.readOnly != "" {
			return errors.New("server is " + proto.ReadOnly + ": " + s.readOnly)
		}
		return s.rotateJournal()
	})
}

// atQuiescent runs fn under s.mu at a point where the in-memory
// instance equals the durable journal and no append is in flight: the
// committer's quiescent point, or directly under the lock on a
// journal-less server, which has nothing to append.
func (s *Server) atQuiescent(fn func() error) error {
	s.mu.Lock()
	c := s.committer
	if c == nil {
		defer s.mu.Unlock()
		return fn()
	}
	done := c.requestQuiesce(fn)
	s.mu.Unlock()
	return <-done
}

// writeSnapshot renders the instance as a snapshot blob: the
// "# snapshot-seq" / "# snapshot-epoch" headers, then the LDIF. Called
// with s.mu held.
func (s *Server) writeSnapshot(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s%d\n%s%d\n", snapshotSeqPrefix, s.commitSeq, snapshotEpochPrefix, s.epoch.Load()); err != nil {
		return err
	}
	return ldif.WriteDirectory(w, s.dir)
}

// installSnapshot makes what write produces the durable snapshot
// sidecar (tmp write + fsync + atomic rename + parent directory fsync —
// rename alone is not durable) and truncates the journal to empty.
// Called with s.mu held, at a point where the snapshot covers every
// journal record.
//
// The snapshot records the sequence number it compacted through in a
// "# snapshot-seq" header, so a crash anywhere in this function —
// including between the rename and the truncate — recovers cleanly:
// journal records the snapshot already contains are recognized by their
// seq numbers and skipped on replay instead of failing it.
func (s *Server) installSnapshot(write func(io.Writer) error) error {
	j := s.journal
	tmp := j.snapPath + ".tmp"
	f, err := s.opts.FS.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.opts.FS.Rename(tmp, j.snapPath)
	}
	if err != nil {
		s.opts.FS.Remove(tmp)
		return err
	}
	if err := s.opts.FS.SyncDir(vfs.DirOf(j.snapPath)); err != nil {
		// The rename may not survive a crash, but the journal is intact:
		// the caller simply retries later.
		return fmt.Errorf("snapshot %s: parent directory sync after rename: %v", j.snapPath, err)
	}
	if err := j.f.Truncate(0); err != nil {
		// The journal still overlaps the snapshot; that is benign on
		// replay (seq ≤ snapshot-seq is skipped) but the truncate failure
		// means the file cannot be trusted for future appends.
		j.failed = fmt.Sprintf("journal %s not truncated after snapshot (%v)", j.path, err)
		s.degrade(j.failed)
		return err
	}
	_ = j.f.Sync()
	j.size = 0
	s.metrics.JournalBytes.Store(0)
	return nil
}

// degrade flips the server read-only for reason — the only writer of
// s.readOnly. The first reason stands: a later fault does not rename why
// writes stopped (a fenced primary stays "fenced:"). Called under s.mu.
func (s *Server) degrade(reason string) {
	if s.readOnly == "" {
		s.readOnly = reason
	}
	s.logf("server: %s", reason)
}

// rotateJournal compacts the durable state: the current instance
// becomes the snapshot and the journal is emptied. Called with s.mu
// held at a quiescent point.
func (s *Server) rotateJournal() error {
	if err := s.installSnapshot(s.writeSnapshot); err != nil {
		return err
	}
	s.metrics.JournalRotations.Add(1)
	return nil
}
