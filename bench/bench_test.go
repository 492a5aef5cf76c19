package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/loadgen"
	"boundschema/internal/txn"
)

const testEntries = 4000

// testRun generates a mixed run over a small corpus.
func testRun(t *testing.T, seed int64) *run {
	t.Helper()
	_, d := newCorpus(seed, testEntries)
	p := extractPools(d, rand.New(rand.NewSource(seed)))
	sp := spec{name: "t", main: mixMixed, mainOps: 3000, probe: mixWrite, probeOps: 300}
	return newRun(sp, files{}, p, seed, true)
}

// digest hashes everything a run would send and expect.
func digest(r *run) string {
	h := sha256.New()
	streams := [][]req{r.ready}
	for c := 0; c < conns; c++ {
		streams = append(streams, r.warm[c])
		for _, ph := range r.phases {
			streams = append(streams, ph.streams[c])
		}
	}
	for _, s := range streams {
		for _, q := range s {
			fmt.Fprintf(h, "%d|%s|%s|%s|%s|%d\n", q.Kind, q.Cmd, strings.Join(q.Tx, ";"), q.Term, q.Line, q.N)
		}
	}
	dns := make([]string, 0, len(r.ledger))
	for dn := range r.ledger {
		dns = append(dns, dn)
	}
	sort.Strings(dns)
	for _, dn := range dns {
		fmt.Fprintf(h, "%s=%v\n", dn, r.ledger[dn])
	}
	fmt.Fprintf(h, "%d", r.entries)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameStream(t *testing.T) {
	a, b, c := digest(testRun(t, 7)), digest(testRun(t, 7)), digest(testRun(t, 8))
	if a != b {
		t.Errorf("seed 7 generated two different request streams or ledgers")
	}
	if a == c {
		t.Errorf("seeds 7 and 8 generated the same request stream")
	}
}

// TestGeneratorRespectsOwnership walks each connection's transactions and
// checks the rules that make every verdict predictable: only persons the
// connection added itself (and still has) are moved or deleted, nothing is
// written under a search base, and the mix holds its illegal share.
func TestGeneratorRespectsOwnership(t *testing.T) {
	r := testRun(t, 3)
	inBase := func(dn string) bool {
		for _, b := range r.pools.bases {
			if dn == b.dn || strings.HasSuffix(dn, ","+b.dn) {
				return true
			}
		}
		return false
	}
	commits, illegal := 0, 0
	for c := 0; c < conns; c++ {
		owned := make(map[string]bool)
		prefix := fmt.Sprintf("uid=w%dp", c)
		for _, ph := range r.phases {
			for _, q := range ph.streams[c] {
				if q.Kind != kCommit {
					continue
				}
				commits++
				if q.Term == "ILLEGAL" {
					illegal++
					continue
				}
				switch cmd, rest, _ := strings.Cut(q.Tx[0], " "); cmd {
				case "ADD":
					if inBase(rest) {
						t.Fatalf("conn %d adds %s inside a search base", c, rest)
					}
					if strings.HasPrefix(rest, prefix) {
						owned[rest] = true
					} else if !strings.HasPrefix(rest, fmt.Sprintf("ou=w%du", c)) {
						t.Fatalf("conn %d adds %s outside its namespace", c, rest)
					}
				case "DELETE":
					if !owned[rest] {
						t.Fatalf("conn %d deletes %s, which it does not own", c, rest)
					}
					delete(owned, rest)
				case "MOVE":
					from, to, _ := strings.Cut(rest, " -> ")
					if !owned[from] {
						t.Fatalf("conn %d moves %s, which it does not own", c, from)
					}
					rdn, _, _ := strings.Cut(from, ",")
					delete(owned, from)
					owned[rdn+","+to] = true
					if inBase(to) {
						t.Fatalf("conn %d moves %s inside a search base", c, from)
					}
				}
			}
		}
		for dn := range owned {
			if !r.ledger[dn] {
				t.Errorf("conn %d still owns %s but the ledger says it is gone", c, dn)
			}
		}
	}
	if illegal*100 < commits || illegal*100 > 3*commits {
		t.Errorf("%d of %d transactions illegal, want 2%%", illegal, commits)
	}
}

// TestStreamVerdictsMatchEngine applies every generated transaction to
// the corpus with the real applier: each must be accepted or rejected as
// the generator predicted, no orgGroup may lose its last person, and the
// final entry count must be the ledger's.
func TestStreamVerdictsMatchEngine(t *testing.T) {
	const seed = 5
	r := testRun(t, seed)
	schema, d := newCorpus(seed, testEntries)
	app := txn.NewApplier(schema)
	for c := 0; c < conns; c++ {
		for _, ph := range r.phases {
			for _, q := range ph.streams[c] {
				if q.Kind != kCommit {
					continue
				}
				tx, err := buildTx(q.Tx, schema.Registry)
				if err != nil {
					t.Fatal(err)
				}
				report, err := app.Apply(d, tx)
				if err != nil {
					t.Fatalf("%v: %v", q.Tx, err)
				}
				if report.Legal() != (q.Term == "OK") {
					t.Fatalf("%v: legal=%v, generator expected %s", q.Tx, report.Legal(), q.Term)
				}
			}
		}
	}
	if d.Len() != r.entries {
		t.Errorf("%d entries after the streams, ledger says %d", d.Len(), r.entries)
	}
	if rep := core.NewChecker(schema).Check(d); !rep.Legal() {
		t.Errorf("instance illegal after the streams:\n%s", rep)
	}
	for dn, live := range r.ledger {
		if (d.ByDN(dn) != nil) != live {
			t.Errorf("ledger says %s live=%v", dn, live)
		}
	}
	// The SEARCH expectations were counted before any write; they must
	// still hold, because writes stay outside the bases.
	for _, b := range r.pools.bases {
		got, _ := census(d.ByDN(b.dn), nil)
		if got.dn = b.dn; got != b {
			t.Errorf("base %s changed under the writes: %+v, was %+v", b.dn, got, b)
		}
	}
}

func TestVerify(t *testing.T) {
	get := req{Kind: kGet, Cmd: "GET uid=p1,o=org0", Term: "OK", Line: "name: person 1"}
	search := req{Kind: kSearch, Cmd: "SEARCH (mail=*) base=ou=u1,o=org0", Term: "OK", Line: "ou=u1,o=org0", N: 2}
	gone := req{Kind: kGet, Cmd: "GET uid=w0p1,o=org0", Term: "ERR"}
	cases := []struct {
		name string
		q    req
		resp loadgen.Resp
		want bool
	}{
		{"get ok", get, loadgen.Resp{Term: "OK", Lines: []string{"dn: uid=p1,o=org0", "mail: x", "name: person 1"}}, true},
		{"get wrong dn", get, loadgen.Resp{Term: "OK", Lines: []string{"dn: uid=p2,o=org0", "name: person 1"}}, false},
		{"get no name", get, loadgen.Resp{Term: "OK", Lines: []string{"dn: uid=p1,o=org0"}}, false},
		{"get err", get, loadgen.Resp{Term: "ERR", Err: "no entry"}, false},
		{"search ok", search, loadgen.Resp{Term: "OK", Lines: []string{"ou=u1,o=org0", "uid=p2,ou=u1,o=org0"}}, true},
		{"search short", search, loadgen.Resp{Term: "OK", Lines: []string{"ou=u1,o=org0"}}, false},
		{"search stray", search, loadgen.Resp{Term: "OK", Lines: []string{"ou=u1,o=org0", "uid=p2,ou=u2,o=org0"}}, false},
		{"deleted found", gone, loadgen.Resp{Term: "OK", Lines: []string{"dn: uid=w0p1,o=org0"}}, false},
		{"deleted gone", gone, loadgen.Resp{Term: "ERR", Err: `no entry "uid=w0p1,o=org0"`}, true},
	}
	for _, c := range cases {
		if got := c.q.verify(c.resp, nil); got != c.want {
			t.Errorf("%s: verify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{}, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	for _, c := range []struct {
		vs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{9}, 9}, {[]float64{1, 100, 2, 3, 2.5}, 2.5}, {nil, 0}} {
		if got := median(c.vs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// req.commit [0,100) with txn.apply [10,50), txn.encode [50,60) and
	// vfs.fsync [70,120) running past its parent; apply has a child of its
	// own, dirtree.patch [20,30); a second request has no children.
	spans := []span{
		{ID: 1, Name: "req.commit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "txn.apply", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "txn.encode", Start: 50, End: 60},
		{ID: 4, Parent: 1, Name: "vfs.fsync", Start: 70, End: 120},
		{ID: 5, Parent: 2, Name: "dirtree.patch", Start: 20, End: 30},
		{ID: 6, Name: "req.get", Start: 200, End: 207},
	}
	want := map[string]int64{
		"req":     (100 - 40 - 10 - 30) + 7, // children cover [10,60) and [70,100)
		"txn":     (40 - 10) + 10,
		"vfs":     50,
		"dirtree": 10,
	}
	got := selfTimes(spans)
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	overlap := covered(span{Start: 0, End: 10}, []span{{Start: 2, End: 6}, {Start: 4, End: 8}})
	if overlap != 6 {
		t.Errorf("overlapping children cover %d, want 6", overlap)
	}
}

func TestScaled(t *testing.T) {
	sp, _ := specByName("wp_read")
	if got := sp.scaled(runSeconds, false); got.mainOps != sp.mainOps || got.trials != sp.trials {
		t.Errorf("default seconds changed the spec: %+v", got)
	}
	q := sp.scaled(runSeconds, true)
	if q.trials != 1 || q.mainOps != sp.mainOps/10 {
		t.Errorf("quick spec %+v, want 1 trial and a tenth of the ops", q)
	}
	if half := sp.scaled(runSeconds/2, false); half.mainOps != sp.mainOps/2 {
		t.Errorf("half the seconds gave %d main ops, want %d", half.mainOps, sp.mainOps/2)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to what the program prints:
// the same workloads, and the same metric names and units in both modes.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ Name, Unit string }
	var bf struct {
		Workloads []row
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file []row, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d rows, the program %d", what, len(file), len(prog))
			return
		}
		for i, m := range prog {
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s row %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	var names []metricDef
	for _, sp := range specs {
		names = append(names, metricDef{name: sp.name})
	}
	same("workloads", bf.Workloads, names)
}
