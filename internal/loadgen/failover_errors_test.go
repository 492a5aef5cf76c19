package loadgen

import (
	"testing"

	"boundschema/internal/proto"
)

// TestClassifyFailoverTaxonomy pins the error labels failover drivers
// steer by. The ordering matters: a fenced ex-primary's reason flows to
// clients as "server is read-only: fenced: ...", so the fenced check
// must win over the generic read-only one — conflating them would make
// a driver treat a deposed primary (healthy, just superseded) like a
// node with a broken journal.
func TestClassifyFailoverTaxonomy(t *testing.T) {
	cases := []struct {
		msg  string
		want string
	}{
		{"server is read-only: fenced: observed epoch 3 > local epoch 2 via HELLO from replica 127.0.0.1:9; a newer primary exists", ErrFenced},
		{"stale epoch: this primary is at epoch 1, replica announced epoch 2", ErrStaleEpoch},
		{"server is read-only: journal sync failed: disk gone", ErrReadOnly},
		{"read-only replica: writes go to the primary (redirect primary=127.0.0.1:1234)", ErrRedirect},
		{"commit not durable: sync failed", ErrNotDurable},
	}
	for _, tc := range cases {
		resp := proto.Reply{Term: "ERR", Err: tc.msg}
		if got := classify(resp, nil); got != tc.want {
			t.Errorf("classify(%q) = %q, want %q", tc.msg, got, tc.want)
		}
	}
}
