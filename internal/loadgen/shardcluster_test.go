package loadgen

import (
	"testing"
	"time"
)

// TestShardClusterLoad runs plain churn through the router over a
// carved cluster and ends with the sharded oracle — the router is a
// drop-in load target: same protocol, same client, same taxonomy.
func TestShardClusterLoad(t *testing.T) {
	sc, _ := ScenarioByName("whitepages")
	cl, err := StartShardCluster(sc, 300, 2, 7)
	if err != nil {
		t.Fatalf("StartShardCluster: %v", err)
	}
	defer cl.Close()
	if len(cl.Shards) < 3 {
		t.Fatalf("want at least 2 carved shards + default, got %d nodes", len(cl.Shards))
	}
	res := load{sc: sc, pools: cl.Pools, workers: 4, deck: churn, write: at(cl.Addr)}.run(1200 * time.Millisecond)
	if res.committed == 0 {
		t.Fatal("no transaction committed through the router")
	}
	// Churn moves entries between corpus parents; some straddle the cut
	// and must come back as cross_shard refusals, never as half-applied
	// state (the oracle below would catch that).
	for label, n := range res.errs {
		switch label {
		case errCrossShard, errIllegal, errNotFound:
			// expected under churn against a carved map
		default:
			t.Errorf("unexpected error class %s=%d", label, n)
		}
	}
	if err := cl.oracle(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestChaosShardCrash runs churn through a router over two carved
// shards plus a default shard, kills one carved shard mid-run, restarts
// it (journal recovery on the original address), and finishes the run.
// While the shard is down, transactions it owns come back as shard_down
// errors and everything else keeps flowing. The run ends with the
// sharded oracle: per-shard VERIFY, the router's cross-shard CHECK, and
// the reconstructed global instance legal under the full engine.
func TestChaosShardCrash(t *testing.T) {
	corpusN, workers, d := chaosSize()
	sc, _ := ScenarioByName("netpolicy")
	cl, err := StartShardCluster(sc, corpusN, 2, chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan tally, 1)
	go func() {
		done <- load{sc: sc, pools: cl.Pools, workers: workers, deck: churn, write: at(cl.Addr)}.run(d)
	}()

	victim := cl.Shards[0].Name
	time.Sleep(d * 2 / 5)
	cl.crashShard(victim)
	time.Sleep(d / 5)
	if err := cl.restartShard(victim); err != nil {
		<-done
		t.Fatalf("restart %s: %v", victim, err)
	}
	res := <-done
	t.Logf("shard %s killed and recovered mid-run; committed=%d errors=%v", victim, res.committed, res.errs)
	if res.committed == 0 {
		t.Fatal("no transaction ever committed")
	}
	if n := res.errs[errWrongShard]; n > 0 {
		t.Errorf("wrong_shard errors on a map with a default shard: %d", n)
	}
	if err := cl.oracle(); err != nil {
		t.Fatal(err)
	}
}
