package server

import (
	"fmt"
	"math/rand"
	"testing"

	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/repl"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// The index ≡ scan differential oracle: the planner may choose any
// access path it likes, but for every filter shape the result must be
// exactly what a brute-force scan of the view produces — over all three
// scenario corpora, through live mutation, across a crash/recovery
// restart, and on a replica before and after promotion.

// diffFilters builds a filter corpus covering every shape the planner
// distinguishes, instantiated with attribute values sampled from the
// directory (so equality and prefix probes actually hit) plus misses and
// unparsable values for the fallback paths.
func diffFilters(d *dirtree.Directory, rng *rand.Rand) []filter.Filter {
	var fs []filter.Filter
	ents := d.Entries()
	seen := map[string]bool{}
	for tries := 0; tries < 200 && len(seen) < 8; tries++ {
		e := ents[rng.Intn(len(ents))]
		for _, a := range e.AttrNames() {
			if a == dirtree.AttrObjectClass || seen[a] {
				continue
			}
			seen[a] = true
			vals := e.Attr(a)
			text := vals[rng.Intn(len(vals))].String()
			fs = append(fs,
				filter.Compare{Attr: a, Op: filter.OpEqual, Value: text},
				filter.Compare{Attr: a, Op: filter.OpEqual, Value: text + "-nope"},
				filter.Compare{Attr: a, Op: filter.OpGE, Value: text},
				filter.Compare{Attr: a, Op: filter.OpLE, Value: text},
				filter.Compare{Attr: a, Op: filter.OpGE, Value: "not a number"},
				filter.Compare{Attr: a, Op: filter.OpApprox, Value: text},
				filter.Compare{Attr: a, Op: filter.OpPresent},
				filter.Not{Sub: filter.Compare{Attr: a, Op: filter.OpEqual, Value: text}},
			)
			if len(text) >= 2 {
				h := len(text) / 2
				fs = append(fs,
					filter.Substring{Attr: a, Initial: text[:h]},
					filter.Substring{Attr: a, Initial: text[:1], Final: text[h:]},
					filter.Substring{Attr: a, Any: []string{text[h:]}},
					filter.Substring{Attr: a, Initial: text[:1], Any: []string{text[h : h+1]}},
				)
			}
		}
	}
	classes := d.ClassNames()
	for i, c := range classes {
		fs = append(fs, filter.ClassIs(c), filter.Not{Sub: filter.ClassIs(c)})
		other := classes[(i+1)%len(classes)]
		fs = append(fs, filter.And{filter.ClassIs(c), filter.ClassIs(other)})
	}
	// Conjunctions and disjunctions mixing class atoms with typed atoms.
	if len(fs) > 4 && len(classes) > 0 {
		c := filter.ClassIs(classes[rng.Intn(len(classes))])
		fs = append(fs,
			filter.And{c, fs[0]},
			filter.And{fs[0], fs[2], c},
			filter.Or{fs[0], c},
			filter.And{}, // matches everything
			filter.Or{},  // matches nothing
		)
	}
	return fs
}

// diffViews picks the view shapes SEARCH can evaluate against.
func diffViews(d *dirtree.Directory) []dirtree.View {
	views := []dirtree.View{d.All(), d.EmptyView()}
	ents := d.Entries()
	if len(ents) > 3 {
		views = append(views,
			d.SubtreeView(ents[len(ents)/3]),
			d.ExceptSubtreeView(ents[len(ents)/2]))
	}
	return views
}

// assertIndexScanAgree runs every filter over every view twice — through
// the planner and by brute-force scan — and requires identical results.
func assertIndexScanAgree(t *testing.T, d *dirtree.Directory, fs []filter.Filter, label string) {
	t.Helper()
	for _, v := range diffViews(d) {
		for _, f := range fs {
			got, plan := hquery.EvalSelect(f, v)
			var want []*dirtree.Entry
			for _, e := range v.Entries() {
				if f.Matches(e) {
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s: %s over %s via %s: %d entries, scan found %d",
					label, f, v, plan.Strategy, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: %s over %s via %s: entry %d = %s, scan found %s",
						label, f, v, plan.Strategy, i, got[i].DN(), want[i].DN())
					break
				}
			}
		}
	}
}

// TestSearchIndexScanDifferential runs the oracle over the three
// scenario corpora, then keeps it running through a burst of random
// value and structural mutations so the incremental index maintenance is
// what answers the re-planned probes.
func TestSearchIndexScanDifferential(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *dirtree.Directory
	}{
		{"whitepages", func(rng *rand.Rand) *dirtree.Directory {
			return workload.Corpus(workload.WhitePagesSchema(), rng, 400)
		}},
		{"netpolicy", func(rng *rand.Rand) *dirtree.Directory {
			return workload.NetPolicyCorpus(workload.NetPolicySchema(), rng, 400)
		}},
		{"semistruct", func(rng *rand.Rand) *dirtree.Directory {
			return workload.SemiStructCorpus(workload.SemiStructSchema(), rng, 400)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d := tc.build(rng)
			fs := diffFilters(d, rng)
			assertIndexScanAgree(t, d, fs, "initial")

			// Mutate in place: value edits drive the eager index hooks,
			// structural edits drive the patch-path hooks. Legality is
			// irrelevant here — only index ≡ scan is under test.
			var added []*dirtree.Entry
			for i := 0; i < 60; i++ {
				ents := d.Entries()
				e := ents[rng.Intn(len(ents))]
				switch rng.Intn(5) {
				case 0:
					e.AddValue("name", dirtree.String(fmt.Sprintf("mut-%d", i)))
				case 1:
					if names := e.AttrNames(); len(names) > 0 {
						a := names[rng.Intn(len(names))]
						if a != dirtree.AttrObjectClass {
							vals := e.Attr(a)
							e.RemoveValue(a, vals[rng.Intn(len(vals))])
						}
					}
				case 2:
					e.SetValues("name", dirtree.String(fmt.Sprintf("set-%d", i)))
				case 3:
					parent := ents[rng.Intn(len(ents))]
					c, err := d.AddChild(parent, fmt.Sprintf("cn=diff-%d", i), "top")
					if err == nil {
						c.AddValue("name", dirtree.String(fmt.Sprintf("child-%d", i)))
						added = append(added, c)
					}
				case 4:
					if len(added) > 0 {
						j := rng.Intn(len(added))
						if _, err := d.DeleteSubtree(added[j]); err == nil {
							added[j] = added[len(added)-1]
							added = added[:len(added)-1]
						}
					}
				}
			}
			assertIndexScanAgree(t, d, fs, "mutated")
		})
	}
}

// TestSearchDifferentialRestart: the oracle must hold on a directory
// rebuilt by journal recovery, and the recovered answers must equal the
// pre-crash ones.
func TestSearchDifferentialRestart(t *testing.T) {
	fault := vfs.NewFault()
	srv := newFaultServer(t, fault)
	if err := srv.OpenJournal(crashJournalPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := commitPerson(t, srv, fmt.Sprintf("sd%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	srv.mu.RLock()
	d := srv.dir
	srv.mu.RUnlock()
	fs := diffFilters(d, rng)
	assertIndexScanAgree(t, d, fs, "pre-restart")
	before := resultDNs(d, fs)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newFaultServer(t, fault)
	if err := srv2.OpenJournal(crashJournalPath); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	srv2.mu.RLock()
	d2 := srv2.dir
	srv2.mu.RUnlock()
	assertIndexScanAgree(t, d2, fs, "post-restart")
	after := resultDNs(d2, fs)
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("filter %s: pre-restart %q, post-restart %q", fs[i], before[i], after[i])
		}
	}
}

// resultDNs evaluates each filter through the planner and joins the
// matching DNs, for cross-instance comparison.
func resultDNs(d *dirtree.Directory, fs []filter.Filter) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		ents, _ := hquery.EvalSelect(f, d.All())
		for _, e := range ents {
			out[i] += e.DN() + "\n"
		}
	}
	return out
}

// TestSearchDifferentialReplica: the oracle must hold on a replica's
// directory after streaming catch-up (the replicated apply path), keep
// agreeing with the primary, and survive promotion plus the first
// post-failover commit.
func TestSearchDifferentialReplica(t *testing.T) {
	primary, addr := startPrimary(t, Options{ReplMode: repl.Async})
	r := startReplica(t, vfs.NewFault(), addr)
	for i := 0; i < 25; i++ {
		if err := commitPerson(t, primary, fmt.Sprintf("rd%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(t, r, commitSeqOf(primary))

	rng := rand.New(rand.NewSource(13))
	primary.mu.RLock()
	pd := primary.dir
	primary.mu.RUnlock()
	fs := diffFilters(pd, rng)
	assertIndexScanAgree(t, pd, fs, "primary")
	r.mu.RLock()
	rd := r.dir
	r.mu.RUnlock()
	assertIndexScanAgree(t, rd, fs, "replica")
	pres, rres := resultDNs(pd, fs), resultDNs(rd, fs)
	for i := range pres {
		if pres[i] != rres[i] {
			t.Errorf("filter %s: primary %q, replica %q", fs[i], pres[i], rres[i])
		}
	}

	primary.Close()
	if _, err := r.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := commitPerson(t, r, "postpromote"); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	rd = r.dir
	r.mu.RUnlock()
	assertIndexScanAgree(t, rd, fs, "promoted")
	if ents, _ := hquery.EvalSelect(filter.Compare{Attr: "name", Op: filter.OpEqual, Value: "postpromote"}, rd.All()); len(ents) != 1 {
		t.Errorf("post-promotion commit not indexed: %d matches", len(ents))
	}
}
