package vfs

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"path/filepath"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	fs := OS{}
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(name)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if _, err := fs.ReadFile(filepath.Join(dir, "missing")); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want fs.ErrNotExist", err)
	}
}

func TestFaultCrashDiscardsUnsynced(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("j")
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(" volatile"))
	fs.SetScript(FaultPoint{Op: fs.OpCount() + 1, Kind: FaultCrash})
	f.Write([]byte("!")) // op fires here: completes, then power loss
	if _, err := f.Write([]byte("x")); !errors.Is(err, errCrash) {
		t.Fatalf("write after crash = %v, want ErrCrash", err)
	}
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
	fs.Recover()
	data, err := fs.ReadFile("j")
	if err != nil || string(data) != "durable" {
		t.Fatalf("after recovery = %q, %v; want only synced bytes", data, err)
	}
}

func TestFaultUnsyncedCreateVanishes(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("new")
	f.Write([]byte("bytes"))
	f.Close() // no Sync
	fs.SetScript(FaultPoint{Op: fs.OpCount() + 1, Kind: FaultCrash})
	fs.Remove("nonexistent") // fires the crash
	fs.Recover()
	if _, err := fs.ReadFile("new"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("unsynced created file survived crash: %v", err)
	}
}

func TestFaultRenameDurabilityNeedsSyncDir(t *testing.T) {
	for _, syncDir := range []bool{false, true} {
		fs := NewFault()
		f, _ := fs.Create("snap.tmp")
		f.Write([]byte("snapshot"))
		f.Sync()
		f.Close()
		if err := fs.Rename("snap.tmp", "snap"); err != nil {
			t.Fatal(err)
		}
		if syncDir {
			if err := fs.SyncDir("."); err != nil {
				t.Fatal(err)
			}
		}
		fs.SetScript(FaultPoint{Op: fs.OpCount() + 1, Kind: FaultCrash})
		fs.Remove("nonexistent")
		fs.Recover()
		_, errSnap := fs.ReadFile("snap")
		_, errTmp := fs.ReadFile("snap.tmp")
		if syncDir {
			if errSnap != nil || errTmp == nil {
				t.Fatalf("with SyncDir: snap=%v tmp=%v; want rename durable", errSnap, errTmp)
			}
		} else {
			if errSnap == nil || errTmp != nil {
				t.Fatalf("without SyncDir: snap=%v tmp=%v; want rename undone by crash", errSnap, errTmp)
			}
		}
	}
}

func TestFaultTornWrite(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("j")
	f.Write([]byte("prefix|"))
	f.Sync()
	fs.SetScript(FaultPoint{Op: fs.OpCount() + 1, Kind: FaultTornWrite, Keep: 3})
	if _, err := f.Write([]byte("record")); !errors.Is(err, errCrash) {
		t.Fatalf("torn write error = %v", err)
	}
	fs.Recover()
	data, _ := fs.ReadFile("j")
	if string(data) != "prefix|rec" {
		t.Fatalf("after torn write: %q, want the synced prefix plus 3 torn bytes", data)
	}
}

func TestFaultShortWrite(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("j")
	fs.SetScript(FaultPoint{Op: fs.OpCount() + 1, Kind: faultShortWrite, Keep: 2})
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || err == nil {
		t.Fatalf("short write = (%d, %v), want (2, error)", n, err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err) // the writer's cleanup still works
	}
	data, _ := fs.ReadFile("j")
	if len(data) != 0 {
		t.Fatalf("truncate after short write left %q", data)
	}
}

func TestFaultBitFlip(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("j")
	payload := []byte("abcdefgh")
	fs.SetScript(FaultPoint{Op: fs.OpCount() + 1, Kind: FaultBitFlip})
	if n, err := f.Write(payload); n != len(payload) || err != nil {
		t.Fatalf("bit-flip write must silently succeed, got (%d, %v)", n, err)
	}
	data, _ := fs.ReadFile("j")
	if bytes.Equal(data, payload) {
		t.Fatal("bit flip did not corrupt the stored bytes")
	}
	diff := 0
	for i := range data {
		if data[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes, want exactly 1", diff)
	}
}

func TestFaultEverySyncFails(t *testing.T) {
	fs := NewFault()
	f, _ := fs.Create("j")
	f.Write([]byte("x"))
	fs.SetScript(FaultPoint{Kind: FaultSyncErr}) // Op 0: every sync
	if err := f.Sync(); err == nil {
		t.Fatal("injected sync error did not fire")
	}
	if err := f.Sync(); err == nil {
		t.Fatal("Op-0 fault must fire on every applicable op")
	}
	// Writes still work; only syncs fail.
	if _, err := f.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestFaultOpCountDeterministic(t *testing.T) {
	run := func() int {
		fs := NewFault()
		f, _ := fs.Create("j")
		f.Write([]byte("a"))
		f.Sync()
		fs.Rename("j", "k")
		fs.SyncDir(".")
		return fs.OpCount()
	}
	if a, b := run(), run(); a != b || a != 5 {
		t.Fatalf("op counts %d, %d; want deterministic 5", a, b)
	}
}
