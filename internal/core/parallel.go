package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"boundschema/internal/dirtree"
	"boundschema/internal/hquery"
)

// This file implements the Checker's one full-check engine. Theorem 3.1
// makes full legality checking a sum of independent pieces of work along
// two axes:
//
//   - the content and key checks of Section 3.1 are per-entry, so the
//     pre-order entry list splits into contiguous DN-ordered chunks that
//     are checked independently;
//   - the structure checks of Section 3.2 are per-element, one Figure 4
//     query each, evaluated against one shared read-only Binding.
//
// Every piece is a job on runPool; the worker count only sets the pool's
// width, and at one worker the jobs run inline, in order.
//
// Determinism contract: the report is byte-identical at every worker
// count. Content chunks are merged in chunk (= pre-order) order; key
// extraction is chunked but the uniqueness pass replays the extracted
// streams in pre-order; structure violations are emitted in the schema's
// canonical element order with MaxWitnesses applied after the merge. The
// differential oracle (difforacle.go) enforces this contract over
// randomized workloads, across chunk widths and against independent
// structure and key references (naive.go).
//
// Concurrency contract: workers only read the directory. The directory
// is sealed once, before the fan-out (dirtree.Directory), so no worker
// ever writes its encoding (see hquery.Binding).

// autoParallelMin is the instance size below which Concurrency = 0 (auto)
// runs one worker: the fan-out overhead dominates for small instances,
// and the incremental Figure 5 checks keep hot small-Δ paths cheap.
const autoParallelMin = 4096

// chunksPerWorker oversplits the entry list so a chunk of expensive
// entries cannot serialize the pool behind one worker.
const chunksPerWorker = 4

// workersFor resolves the Concurrency knob for an instance of n entries
// into the pool width: values ≥ 1 are taken literally, and 0 (or
// negative) picks GOMAXPROCS for instances big enough to amortize it.
func (c *Checker) workersFor(n int) int {
	switch {
	case c.Concurrency >= 1:
		return c.Concurrency
	case n < autoParallelMin:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// runPool runs job(0) … job(n-1) on a pool of at most workers goroutines
// and waits for all of them. Indices are claimed in order; at one worker
// the jobs run inline.
func runPool(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// chunkBounds splits [0, n) into at most chunks contiguous half-open
// ranges of near-equal size.
func chunkBounds(n, chunks int) [][2]int {
	if n == 0 {
		return nil
	}
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]int, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Content schema: contiguous entry chunks, merged in pre-order.

func (c *Checker) checkContent(d *dirtree.Directory, workers int) *Report {
	entries := d.Entries() // brings the encoding current before the fan-out
	// One decision per live class set, made before the fan-out; workers
	// only index it by the entry's set ID.
	sets := d.ClassSets()
	memos := make([]*setMemo, len(sets))
	for i, set := range sets {
		if set != nil {
			memos[i] = newSetMemo(c.schema, set)
		}
	}
	bounds := chunkBounds(len(entries), workers*chunksPerWorker)
	reports := make([]Report, len(bounds))
	runPool(workers, len(bounds), func(i int) {
		for _, e := range entries[bounds[i][0]:bounds[i][1]] {
			c.checkEntry(memos[e.ClassSet().ID], e, &reports[i])
		}
	})
	out := &Report{}
	for i := range reports {
		out.Merge(&reports[i])
	}
	return out
}

// ---------------------------------------------------------------------
// Keys: chunked extraction, one uniqueness replay in pre-order.

type keyVal struct {
	attr  string
	value string
}

// keyRef is one (key value, holding entry) occurrence, in pre-order.
type keyRef struct {
	kv keyVal
	e  *dirtree.Entry
}

func (c *Checker) checkKeys(d *dirtree.Directory, workers int) *Report {
	r := &Report{}
	keys := c.schema.Keys()
	if len(keys) == 0 {
		return r
	}
	entries := d.Entries()
	bounds := chunkBounds(len(entries), workers*chunksPerWorker)
	streams := make([][]keyRef, len(bounds))
	runPool(workers, len(bounds), func(i int) {
		var refs []keyRef
		for _, e := range entries[bounds[i][0]:bounds[i][1]] {
			for _, attr := range keys {
				for _, v := range e.Attr(attr) {
					refs = append(refs, keyRef{keyVal{attr, v.String()}, e})
				}
			}
		}
		streams[i] = refs
	})
	// Replaying the per-chunk streams in chunk order visits the values in
	// pre-order whatever the chunk width, so the first holder of every
	// value — and the violation list — is the same at every worker count.
	seen := make(map[keyVal]*dirtree.Entry, len(entries))
	for _, refs := range streams {
		for _, ref := range refs {
			if prev, dup := seen[ref.kv]; dup && prev != ref.e {
				r.Add(Violation{Kind: ViolationDuplicateKey, Entry: ref.e,
					Detail: fmt.Sprintf("key %s=%q already used by %s", ref.kv.attr, ref.kv.value, prev.DN())})
				continue
			}
			seen[ref.kv] = ref.e
		}
	}
	return r
}

// ---------------------------------------------------------------------
// Structure schema: one job per element, canonical emission order.

func (c *Checker) checkStructure(d *dirtree.Directory, workers int) *Report {
	d.EnsureEncoded()
	b := hquery.NewBinding(d)
	rc := c.schema.Structure.RequiredClasses()
	rr := c.schema.Structure.RequiredRels()
	fr := c.schema.Structure.ForbiddenRels()
	nrc, nrr := len(rc), len(rr)
	missing := make([]bool, nrc)
	witnesses := make([][]*dirtree.Entry, nrr+len(fr)) // required, then forbidden rels
	runPool(workers, nrc+len(witnesses), func(i int) {
		switch j := i - nrc; {
		case j < 0:
			missing[i] = hquery.Empty(RequiredClassQuery(rc[i]), b)
		case j < nrr:
			witnesses[j] = hquery.Eval(RequiredRelQuery(rr[j]), b)
		default:
			witnesses[j] = hquery.Eval(ForbiddenRelQuery(fr[j-nrr]), b)
		}
	})
	// Emit in the canonical element order with the witness cap applied
	// after the merge, so neither depends on the order jobs finished in.
	r := &Report{}
	for i, cls := range rc {
		if missing[i] {
			r.Add(Violation{Kind: ViolationMissingClass,
				Element: RequiredClass{Class: cls},
				Detail:  fmt.Sprintf("no entry belongs to required class %s", cls)})
		}
	}
	for i, rel := range rr {
		c.addWitnesses(r, ViolationRequiredRel, rel, witnesses[i])
	}
	for i, rel := range fr {
		c.addWitnesses(r, ViolationForbiddenRel, rel, witnesses[nrr+i])
	}
	return r
}
