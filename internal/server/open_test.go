package server

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"boundschema/internal/repl"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// freeAddr reserves a loopback port and releases it for the caller.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// assertBindable fails unless addr can be bound again.
func assertBindable(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Errorf("%s still bound after a failed Open: %v", addr, err)
		return
	}
	ln.Close()
}

// awaitGoroutines waits for the goroutine count to fall back to base.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after a failed Open, %d before", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpen pins the one boot path. Open refuses the options no boot
// order can serve, and when a late step fails it closes what the earlier
// steps started; either way the requested addresses bind again and no
// goroutine is left behind. A server it returns has the role, committer,
// replication mode and listeners its options ask for.
func TestOpen(t *testing.T) {
	whitepages := func(o Options) Options {
		o.Schema, o.Name = workload.WhitePagesSchema(), "whitepages"
		o.Instance = workload.WhitePagesInstance(o.Schema)
		return o
	}

	t.Run("refused", func(t *testing.T) {
		taken, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer taken.Close()
		addr, replAddr, busy := freeAddr(t), freeAddr(t), taken.Addr().String()
		for _, tc := range []struct {
			name string
			o    Options
			want string
		}{
			{"primary without journal", Options{Addr: addr, ReplAddr: replAddr}, "replication requires a journal"},
			{"replica without journal", Options{Addr: addr, ReplicaOf: busy}, "replication requires a journal"},
			{"primary and replica", Options{Addr: addr, Journal: crashJournalPath, ReplAddr: replAddr, ReplicaOf: busy},
				"mutually exclusive"},
			// The client listener is the last step: the journal, its
			// committer, the hub and the replication listener are all up
			// when it fails.
			{"primary on a taken address", Options{Addr: busy, Journal: crashJournalPath, ReplAddr: replAddr}, "address already in use"},
			// A replica's streaming loop is running when it fails.
			{"replica on a taken address", Options{Addr: busy, Journal: crashJournalPath, ReplicaOf: replAddr}, "address already in use"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				tc.o.FS = vfs.NewFault()
				srv, err := Open(whitepages(tc.o))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					if srv != nil {
						srv.Close()
					}
					t.Fatalf("Open = %v, want an error containing %q", err, tc.want)
				}
				if srv != nil {
					t.Errorf("a failed Open returned a server")
				}
				assertBindable(t, addr)
				assertBindable(t, replAddr)
				awaitGoroutines(t, base)
			})
		}
	})

	t.Run("primary and replica", func(t *testing.T) {
		primary := openServer(t, whitepages(Options{Journal: crashJournalPath, FS: vfs.NewFault(),
			ReplAddr: "127.0.0.1:0", ReplMode: repl.SemiSync, SemiSyncTimeout: 50 * time.Millisecond}))
		replicaAddr := freeAddr(t)
		replica := openServer(t, whitepages(Options{Addr: replicaAddr, Journal: crashJournalPath, FS: vfs.NewFault(),
			ReplicaOf: primary.ReplAddr()}))

		// Every journaled node owns its journal through a committer,
		// whatever its role, and Open returned with the loop streaming.
		for _, srv := range []*Server{primary, replica} {
			srv.mu.RLock()
			c := srv.committer
			srv.mu.RUnlock()
			if c == nil {
				t.Errorf("every journaled node built by Open has a committer: the %v has none", srv.Role())
			}
		}
		if replica.Role() != RoleReplica {
			t.Errorf("replica role = %v", replica.Role())
		}

		// Addr and ReplAddr are the bound ports: the client protocol
		// answers on Addr, and a replica streams from ReplAddr.
		if got := replica.Addr(); got != replicaAddr {
			t.Errorf("replica Addr() = %q, want the requested %q", got, replicaAddr)
		}
		if got := replica.ReplAddr(); got != "" {
			t.Errorf("replica ReplAddr() = %q, want none", got)
		}
		for _, a := range []string{primary.Addr(), primary.ReplAddr()} {
			if strings.HasSuffix(a, ":0") {
				t.Errorf("address %q is not a bound port", a)
			}
		}
		if body := dialClient(t, primary.Addr()).expectOK("STAT"); body[0] != "role: primary" {
			t.Errorf("STAT on primary Addr() = %v", body)
		}
		waitReplicas(t, primary, 1)

		// The primary runs the configured mode: semi-sync, waiting at
		// most SemiSyncTimeout for an ACK that a partitioned replica
		// cannot send, then degrading to async.
		if st := primary.ReplStatus(); st.Mode != repl.SemiSync || st.Degraded {
			t.Fatalf("primary hub status = %+v, want semi-sync, not degraded", st)
		}
		replica.Close()
		start := time.Now()
		if _, err := primary.CommitTx(crashWorkload(1)[0].build()); err != nil {
			t.Fatal(err)
		}
		if waited := time.Since(start); waited >= repl.DefaultAckTimeout {
			t.Errorf("semi-sync commit waited %v, want about the configured 50ms", waited)
		}
		if st := primary.ReplStatus(); !st.Degraded {
			t.Errorf("semi-sync commit without an ACK left the hub %+v, want degraded", st)
		}
	})
}
