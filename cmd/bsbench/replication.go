package main

// E18 — streaming replication (internal/repl, internal/server/repl.go):
// a primary ships its acknowledged journal to read-only replicas, so
// read traffic can fan out across the cluster while writes stay on one
// node. The experiment measures two things. First, aggregate SEARCH
// throughput as replicas are added: a fixed pool of protocol clients
// is spread round-robin over the serving nodes, so each added replica
// splits the per-node session and lock contention. The gain is real
// parallel capacity, so the curve scales with the cores (and, for
// write-heavy mixes, disks) backing the nodes — on a single-core host
// the aggregate stays flat and the JSON records that honestly. Second,
// the write-side price of semi-synchronous durability: commit latency
// with the semi-sync gate (COMMIT's OK waits for a replica ack)
// against the async baseline on an identical cluster. Optionally
// records the numbers as JSON (-json-e18 BENCH_repl.json).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"boundschema/internal/dirtree"
	"boundschema/internal/repl"
	"boundschema/internal/server"
	"boundschema/internal/txn"
	"boundschema/internal/workload"
)

type replReadPoint struct {
	Replicas  int     `json:"replicas"`
	Servers   int     `json:"servers"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	ElapsedNs int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup_vs_primary_only"`
}

type replCommitPoint struct {
	Mode       string  `json:"mode"`
	Commits    int     `json:"commits"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	NsPerTx    float64 `json:"ns_per_tx"`
	AckedSeq   uint64  `json:"acked_seq"`
	Degraded   bool    `json:"degraded"`
	SlowdownVs float64 `json:"slowdown_vs_async"`
}

type replResult struct {
	Experiment string `json:"experiment"`
	envInfo
	Reads   []replReadPoint   `json:"reads"`
	Commits []replCommitPoint `json:"commits"`
}

// e18Cluster builds a journaled primary with seeded commits plus n
// caught-up replicas, and returns the protocol addresses of every
// serving node (primary first) and a shutdown func.
func e18Cluster(dir string, mode repl.Mode, n, seedCommits int) (*server.Server, []string, func(), error) {
	var servers []*server.Server
	shutdown := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	node := func(name string) (*server.Server, error) {
		s := workload.WhitePagesSchema()
		srv, err := server.New(s, "whitepages", workload.WhitePagesInstance(s))
		if err != nil {
			return nil, err
		}
		if err := srv.OpenJournal(filepath.Join(dir, name+".ldif")); err != nil {
			srv.Close()
			return nil, err
		}
		servers = append(servers, srv)
		return srv, nil
	}
	primary, err := node("primary")
	if err != nil {
		return nil, nil, shutdown, err
	}
	primary.SetReplicationMode(mode)
	replAddr, err := primary.ListenRepl("127.0.0.1:0")
	if err != nil {
		return nil, nil, shutdown, err
	}
	for i := 0; i < seedCommits; i++ {
		if _, err := primary.CommitTx(e18Txn(i)); err != nil {
			return nil, nil, shutdown, err
		}
	}
	addr, err := primary.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, shutdown, err
	}
	addrs := []string{addr}
	for i := 0; i < n; i++ {
		r, err := node(fmt.Sprintf("replica%d", i))
		if err != nil {
			return nil, nil, shutdown, err
		}
		if err := r.StartReplica(replAddr); err != nil {
			return nil, nil, shutdown, err
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			if local, _ := r.ReplicaSeqs(); local >= uint64(seedCommits) {
				break
			}
			if time.Now().After(deadline) {
				return nil, nil, shutdown, fmt.Errorf("replica %d never caught up", i)
			}
			time.Sleep(time.Millisecond)
		}
		raddr, err := r.Listen("127.0.0.1:0")
		if err != nil {
			return nil, nil, shutdown, err
		}
		addrs = append(addrs, raddr)
	}
	return primary, addrs, shutdown, nil
}

func e18Txn(i int) *txn.Transaction {
	tx := &txn.Transaction{}
	uid := fmt.Sprintf("e18u%06d", i)
	tx.Add("uid="+uid+",ou=attLabs,o=att", []string{"person", "top"},
		map[string][]dirtree.Value{"name": {dirtree.String(uid)}})
	return tx
}

// e18Search runs ops SEARCH commands per client over the protocol, each
// client pinned round-robin to one serving node, and returns the wall
// time for the whole pool.
func e18Search(addrs []string, clients, opsPerClient int) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for i := 0; i < opsPerClient; i++ {
				if _, err := fmt.Fprintf(conn, "SEARCH (objectClass=person)\n"); err != nil {
					errs <- err
					return
				}
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						errs <- err
						return
					}
					line = strings.TrimRight(line, "\n")
					if line == "OK" || line == "ILLEGAL" || strings.HasPrefix(line, "ERR ") {
						if line != "OK" {
							errs <- fmt.Errorf("SEARCH replied %q", line)
						}
						break
					}
				}
			}
		}(addrs[c%len(addrs)])
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return elapsed, nil
}

func runE18() {
	seed, clients, opsPerClient, commits := 200, 12, 400, 400
	if *quick {
		seed, clients, opsPerClient, commits = 100, 6, 60, 80
	}
	replicaCounts := []int{0, 1, 2}
	res := replResult{Experiment: "e18-replication", envInfo: env("whitepages")}

	fmt.Printf("read fan-out: %d clients round-robin over the serving nodes, %d SEARCHes each (best of 2 rounds, %d CPUs)\n\n", clients, opsPerClient, runtime.NumCPU())
	var base float64
	for _, n := range replicaCounts {
		dir, err := os.MkdirTemp("", "bsbench-e18-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: e18: %v\n", err)
			return
		}
		_, addrs, shutdown, err := e18Cluster(dir, repl.Async, n, seed)
		if err == nil {
			// Best of two rounds: the first also warms the per-node caches
			// and connection paths.
			var elapsed time.Duration
			for round := 0; err == nil && round < 2; round++ {
				var e time.Duration
				e, err = e18Search(addrs, clients, opsPerClient)
				if err == nil && (elapsed == 0 || e < elapsed) {
					elapsed = e
				}
			}
			if err == nil {
				ops := clients * opsPerClient
				p := replReadPoint{
					Replicas:  n,
					Servers:   len(addrs),
					Clients:   clients,
					Ops:       ops,
					ElapsedNs: elapsed.Nanoseconds(),
					OpsPerSec: float64(ops) / elapsed.Seconds(),
				}
				if base == 0 {
					base = p.OpsPerSec
				}
				p.Speedup = p.OpsPerSec / base
				res.Reads = append(res.Reads, p)
				fmt.Printf("%d replica(s)  %d servers  %7d ops in %-12v  %9.0f ops/s  %.2fx\n",
					n, len(addrs), ops, elapsed, p.OpsPerSec, p.Speedup)
			}
		}
		shutdown()
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: e18 replicas=%d: %v\n", n, err)
			return
		}
	}

	fmt.Printf("\nsemi-sync write price: %d commits on a 1-replica cluster, async vs semisync\n\n", commits)
	var asyncNs float64
	for _, mode := range []repl.Mode{repl.Async, repl.SemiSync} {
		dir, err := os.MkdirTemp("", "bsbench-e18-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: e18: %v\n", err)
			return
		}
		primary, _, shutdown, err := e18Cluster(dir, mode, 1, seed)
		if err == nil {
			t0 := time.Now()
			for i := 0; err == nil && i < commits; i++ {
				_, err = primary.CommitTx(e18Txn(seed + i))
			}
			if err == nil {
				elapsed := time.Since(t0)
				st := primary.ReplStatus()
				p := replCommitPoint{
					Mode:      mode.String(),
					Commits:   commits,
					ElapsedNs: elapsed.Nanoseconds(),
					NsPerTx:   float64(elapsed.Nanoseconds()) / float64(commits),
					AckedSeq:  st.AckedSeq,
					Degraded:  st.Degraded,
				}
				if asyncNs == 0 {
					asyncNs = p.NsPerTx
				}
				p.SlowdownVs = p.NsPerTx / asyncNs
				res.Commits = append(res.Commits, p)
				fmt.Printf("%-8s  %d commits in %-12v  %9.0f ns/tx  acked_seq=%d degraded=%v  %.2fx\n",
					p.Mode, commits, elapsed, p.NsPerTx, p.AckedSeq, p.Degraded, p.SlowdownVs)
			}
		}
		shutdown()
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: e18 %s: %v\n", mode, err)
			return
		}
	}
	fmt.Println("\nshape check: each replica is independent parallel read capacity, so aggregate throughput scales with the cores backing the nodes (flat when every node shares one CPU); semi-sync buys replica durability for one network round-trip per commit.")

	if *jsonE18 != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: %v\n", err)
			return
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonE18, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bsbench: %v\n", err)
			return
		}
		fmt.Printf("results written to %s\n", *jsonE18)
	}
}
