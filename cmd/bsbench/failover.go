package main

// E21 — epoch-fenced failover (internal/server/repl.go, internal/repl):
// the operational cost and the safety payoff of PROMOTE. Two
// measurements. First, time-to-writable: from the instant the primary
// dies to the first commit accepted by the promoted replica, which
// prices everything PROMOTE does on the critical path (full legality
// re-proof, epoch bump, journal rotation with the epoch header).
// Second, acked-write loss across the failover, async vs semi-sync: a
// burst of commits, primary killed, the most-caught-up replica
// promoted, and every commit the client saw OK'd is checked against
// the promoted node's state. Async may lose its unreplicated tail and
// the JSON records how much; semi-sync must lose zero — that is the
// property the partition matrix pins and this experiment prices.
// Finally the fencing half: a deposed-but-alive primary keeps
// accepting doomed writes until first contact with higher-epoch
// evidence, and the experiment counts that window's writes and shows
// the acceptance rate drop to zero after the fence. Optionally records
// the numbers as JSON (-json-e21 BENCH_failover.json).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"boundschema/internal/repl"
	"boundschema/internal/server"
	"boundschema/internal/workload"
)

type failoverPoint struct {
	Mode             string  `json:"mode"`
	Commits          int     `json:"commits"`
	CommitSeqAtKill  uint64  `json:"commit_seq_at_kill"`
	PromotedSeq      uint64  `json:"promoted_local_seq"`
	AckedLost        uint64  `json:"acked_writes_lost"`
	Epoch            uint64  `json:"epoch_after_promote"`
	PromoteNs        int64   `json:"promote_ns"`
	TimeToWritableNs int64   `json:"time_to_writable_ns"`
	TimeToWritableMs float64 `json:"time_to_writable_ms"`
}

type fencingPoint struct {
	DoomedBeforeFence  int     `json:"doomed_writes_before_fence"`
	AcceptedAfterFence int     `json:"writes_accepted_after_fence"`
	TimeToFenceNs      int64   `json:"time_to_fence_ns"`
	TimeToFenceMs      float64 `json:"time_to_fence_ms"`
	StaleEpoch         uint64  `json:"stale_epoch"`
	NewEpoch           uint64  `json:"new_epoch"`
}

type failoverResult struct {
	Experiment string `json:"experiment"`
	envInfo
	Failovers []failoverPoint `json:"failovers"`
	Fencing   fencingPoint    `json:"fencing"`
}

func runE21() {
	commits := 300
	if *quick {
		commits = 60
	}
	res := failoverResult{Experiment: "e21-failover", envInfo: env("whitepages")}

	fmt.Printf("failover: %d-commit burst on 1p+2r, kill primary, promote most-caught-up replica (per mode)\n\n", commits)
	for _, mode := range []repl.Mode{repl.Async, repl.SemiSync} {
		pt, err := e21RunMode(mode, commits)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: e21 %s: %v\n", mode, err)
			return
		}
		res.Failovers = append(res.Failovers, pt)
		fmt.Printf("%-8s  commit_seq=%d promoted_seq=%d acked_lost=%d  promote=%-10v time_to_writable=%-10v epoch=%d\n",
			pt.Mode, pt.CommitSeqAtKill, pt.PromotedSeq, pt.AckedLost,
			time.Duration(pt.PromoteNs), time.Duration(pt.TimeToWritableNs), pt.Epoch)
	}

	fmt.Printf("\nfencing: deposed-but-alive primary, doomed-write window until first higher-epoch contact\n\n")
	fp, err := e21Fencing(commits / 3)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsbench: e21 fencing: %v\n", err)
		return
	}
	res.Fencing = fp
	fmt.Printf("doomed writes accepted before fence: %d (split-brain window is real)\n", fp.DoomedBeforeFence)
	fmt.Printf("writes accepted after fence:         %d (must be 0)\n", fp.AcceptedAfterFence)
	fmt.Printf("time to fence on contact:            %v (epoch %d -> fenced by %d)\n",
		time.Duration(fp.TimeToFenceNs), fp.StaleEpoch, fp.NewEpoch)

	fmt.Println("\nshape check: semi-sync must lose zero acked writes across the failover (async records its honest tail loss); the deposed primary accepts writes only until first contact with the new epoch, then refuses them for good.")

	if *jsonE21 != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: %v\n", err)
			return
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonE21, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: %v\n", err)
			return
		}
		fmt.Printf("results written to %s\n", *jsonE21)
	}
}

// e21RunMode builds its own cluster so it can hold the replica handles
// e18Cluster hides, runs the burst, kills the primary and times the
// promotion to first accepted write.
func e21RunMode(mode repl.Mode, commits int) (failoverPoint, error) {
	pt := failoverPoint{Mode: mode.String(), Commits: commits}
	primary, replicas, cleanup, err := e21Cluster(mode)
	defer cleanup()
	if err != nil {
		return pt, err
	}

	for i := 0; i < commits; i++ {
		if _, err := primary.CommitTx(e18Txn(i)); err != nil {
			return pt, fmt.Errorf("burst commit %d: %v", i, err)
		}
	}
	local, _ := primary.ReplicaSeqs()
	pt.CommitSeqAtKill = local

	kill := time.Now()
	primary.Close()

	// Promote the most-caught-up replica — the failover runbook's rule.
	best := replicas[0]
	bestSeq, _ := best.ReplicaSeqs()
	for _, r := range replicas[1:] {
		if s, _ := r.ReplicaSeqs(); s > bestSeq {
			best, bestSeq = r, s
		}
	}
	pt.PromotedSeq = bestSeq
	if pt.CommitSeqAtKill > bestSeq {
		pt.AckedLost = pt.CommitSeqAtKill - bestSeq
	}

	t0 := time.Now()
	if _, err := best.Promote(); err != nil {
		return pt, fmt.Errorf("promote: %v", err)
	}
	pt.PromoteNs = time.Since(t0).Nanoseconds()
	if _, err := best.CommitTx(e18Txn(commits)); err != nil {
		return pt, fmt.Errorf("first post-promote write: %v", err)
	}
	pt.TimeToWritableNs = time.Since(kill).Nanoseconds()
	pt.TimeToWritableMs = float64(pt.TimeToWritableNs) / 1e6
	pt.Epoch = best.Epoch()
	return pt, nil
}

// e21Fencing demonstrates and prices the fence: promote a replica while
// the old primary is still alive and partitioned-away (here: simply not
// contacted), count the doomed writes the stale primary still accepts,
// then deliver the higher-epoch evidence the way a rejoining replica
// would — a HELLO on the replication port — and verify acceptance drops
// to zero.
func e21Fencing(doomed int) (fencingPoint, error) {
	var fp fencingPoint
	primary, replicas, cleanup, err := e21Cluster(repl.SemiSync)
	defer cleanup()
	if err != nil {
		return fp, err
	}
	primary.SetSemiSyncTimeout(100 * time.Millisecond)

	for i := 0; i < 20; i++ {
		if _, err := primary.CommitTx(e18Txn(i)); err != nil {
			return fp, fmt.Errorf("seed commit %d: %v", i, err)
		}
	}
	fp.StaleEpoch = primary.Epoch()

	// Failover happens elsewhere: a replica is promoted while the old
	// primary is alive but out of contact.
	promoted := replicas[0]
	if _, err := promoted.Promote(); err != nil {
		return fp, fmt.Errorf("promote: %v", err)
	}
	fp.NewEpoch = promoted.Epoch()

	// The split-brain window: the stale primary has seen nothing and
	// still accepts writes. Every one of these is doomed — the rejoin
	// path will discard them via snapshot bootstrap.
	for i := 0; i < doomed; i++ {
		tx := e18Txn(10_000 + i)
		if _, err := primary.CommitTx(tx); err == nil {
			fp.DoomedBeforeFence++
		}
	}

	// First contact: a higher-epoch HELLO on the replication port, the
	// same evidence a replica that already follows the new primary
	// presents when it dials a stale address.
	replAddr := primaryReplAddr(primary)
	if replAddr == "" {
		return fp, fmt.Errorf("stale primary has no replication listener")
	}
	t0 := time.Now()
	if err := e21Hello(replAddr, fp.NewEpoch); err != nil {
		return fp, fmt.Errorf("fencing HELLO: %v", err)
	}
	// The fence trips synchronously in the HELLO handler; poll only to
	// absorb scheduling noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := primary.CommitTx(e18Txn(20_000)); err != nil {
			if !strings.Contains(err.Error(), "fenced") {
				return fp, fmt.Errorf("post-contact write refused for the wrong reason: %v", err)
			}
			break
		}
		fp.AcceptedAfterFence++
		if time.Now().After(deadline) {
			return fp, fmt.Errorf("stale primary never fenced after contact")
		}
		time.Sleep(time.Millisecond)
	}
	fp.TimeToFenceNs = time.Since(t0).Nanoseconds()
	fp.TimeToFenceMs = float64(fp.TimeToFenceNs) / 1e6
	return fp, nil
}

// e21Hello dials a replication listener, announces the given epoch at
// sequence 0 and drains the response — the minimal higher-epoch
// contact.
func e21Hello(replAddr string, epoch uint64) error {
	conn, err := net.DialTimeout("tcp", replAddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, repl.HelloLine(0, epoch)); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = bufio.NewReader(conn).ReadString('\n')
	return err
}

// e21Cluster is e18Cluster with the replica handles exposed: a
// journaled semi-or-async primary plus two caught-up replicas, all on
// their own temp dir.
func e21Cluster(mode repl.Mode) (*server.Server, []*server.Server, func(), error) {
	dir, err := os.MkdirTemp("", "bsbench-e21-")
	if err != nil {
		return nil, nil, func() {}, err
	}
	var servers []*server.Server
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
		os.RemoveAll(dir)
	}
	node := func(name string) (*server.Server, error) {
		srv, err := e21Node(dir, name)
		if err == nil {
			servers = append(servers, srv)
		}
		return srv, err
	}
	primary, err := node("primary")
	if err != nil {
		return nil, nil, cleanup, err
	}
	primary.SetReplicationMode(mode)
	primary.SetSemiSyncTimeout(2 * time.Second)
	replAddr, err := primary.ListenRepl("127.0.0.1:0")
	if err != nil {
		return nil, nil, cleanup, err
	}
	e21ReplAddrs[primary] = replAddr
	var replicas []*server.Server
	for i := 0; i < 2; i++ {
		r, err := node(fmt.Sprintf("replica%d", i))
		if err != nil {
			return nil, nil, cleanup, err
		}
		if err := r.StartReplica(replAddr); err != nil {
			return nil, nil, cleanup, err
		}
		replicas = append(replicas, r)
	}
	// Wait until both replicas subscribed so semi-sync never degrades.
	deadline := time.Now().Add(10 * time.Second)
	for primary.ReplStatus().Replicas < 2 {
		if time.Now().After(deadline) {
			return nil, nil, cleanup, fmt.Errorf("replicas never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	return primary, replicas, cleanup, nil
}

// e21ReplAddrs remembers each primary's replication listener for the
// fencing contact; bsbench runs single-threaded so a bare map is fine.
var e21ReplAddrs = map[*server.Server]string{}

func primaryReplAddr(s *server.Server) string { return e21ReplAddrs[s] }

// e21Node builds one journaled whitepages server, journal on its own
// file under dir.
func e21Node(dir, name string) (*server.Server, error) {
	s := workload.WhitePagesSchema()
	srv, err := server.New(s, "whitepages", workload.WhitePagesInstance(s))
	if err != nil {
		return nil, err
	}
	if err := srv.OpenJournal(filepath.Join(dir, name+".ldif")); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}
