package loadgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/ldif"
	"boundschema/internal/proto"
	"boundschema/internal/txn"
)

// Differential testing of the generated workloads: the exact wire
// batches the load workers emit are replayed through the incremental
// applier (configured like the server), and the instance is run through
// DiffEngines — the checker at 1 and 2 workers, the naive key and
// structure references — at regular intervals. Hand-built illegal mutants then pin the rejection side:
// the applier must refuse them leaving the instance byte-identical, and
// a directly-mutated copy must be judged illegal with all engines in
// agreement.

// forceApply applies tx to d with no legality check — the normalized
// insertions, then the deletions (Theorem 4.1) — to build the illegal
// instance a mutant would produce.
func forceApply(d *dirtree.Directory, tx *txn.Transaction) error {
	norm, err := txn.Normalize(d, tx)
	if err != nil {
		return err
	}
	for _, ins := range norm.Inserts {
		if _, err := d.GraftSubtree(d.ByDN(ins.ParentDN), ins.Fragment.Roots()[0]); err != nil {
			return err
		}
	}
	for _, dn := range norm.Deletes {
		if _, err := d.DeleteSubtree(d.ByDN(dn)); err != nil {
			return err
		}
	}
	return nil
}

// parseTx converts wire transaction lines (the Op.Tx format the sources
// emit) into a txn.Transaction under the protocol's body grammar, as the
// server's session does.
func parseTx(schema *core.Schema, lines []string) (*txn.Transaction, error) {
	t := &txn.Transaction{}
	var pendingDN string
	var pendingClasses []string
	var pendingAttrs map[string][]dirtree.Value
	flush := func() {
		if pendingDN != "" {
			t.Add(pendingDN, pendingClasses, pendingAttrs)
			pendingDN, pendingClasses, pendingAttrs = "", nil, nil
		}
	}
	for _, line := range lines {
		l, err := proto.ParseTxLine(strings.TrimSpace(line), pendingDN != "", 0, 0)
		if err != nil {
			return nil, err
		}
		if l.Cmd != "" {
			flush()
		}
		switch {
		case l.Cmd == "ADD":
			pendingDN = l.DN
			pendingAttrs = make(map[string][]dirtree.Value)
		case l.Cmd == "DELETE":
			t.Delete(l.DN)
		case l.Cmd == "MOVE":
			t.Move(l.DN, l.Dest)
		case l.Cmd != "":
			return nil, fmt.Errorf("unexpected %s in a transaction body", l.Cmd)
		case l.Attr && l.Name == dirtree.AttrObjectClass:
			pendingClasses = append(pendingClasses, l.Value)
		case l.Attr:
			v, err := dirtree.ParseValue(schema.Registry.Type(l.Name), l.Value)
			if err != nil {
				return nil, err
			}
			pendingAttrs[l.Name] = append(pendingAttrs[l.Name], v)
		}
	}
	flush()
	return t, nil
}

func ldifBytes(t *testing.T, d *dirtree.Directory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ldif.WriteDirectory(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkloadBatchesDifferentialEngines replays generated worker
// batches through the incremental applier and cross-checks the evolving
// instance with DiffEngines every few batches: any divergence across
// worker counts or from the naive references on workload-shaped
// instances is a bug in one of them.
func TestWorkloadBatchesDifferentialEngines(t *testing.T) {
	batchesPerWorker := 60
	if full() {
		batchesPerWorker = 400
	}
	for _, sc := range scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			schema := sc.NewSchema()
			rng := rand.New(rand.NewSource(5))
			d := sc.NewCorpus(schema, rng, 300)
			pools := sc.extractPools(d)
			applier := txn.NewApplier(schema)
			applied := 0
			for w := 0; w < 2; w++ {
				wrng := rand.New(rand.NewSource(int64(100 + w)))
				src := sc.newSource(pools, w, wrng)
				for i := 0; i < batchesPerWorker; i++ {
					op, ok := src.Op(churn[wrng.Intn(len(churn))])
					if !ok {
						op, _ = src.Op(opCreate)
					}
					if op.Cmd != "" {
						continue // reads don't mutate
					}
					tx, err := parseTx(schema, op.Tx)
					if err != nil {
						t.Fatalf("batch %v: %v", op.Tx, err)
					}
					report, err := applier.Apply(d, tx)
					if err != nil {
						t.Fatalf("apply %v: %v", op.Tx, err)
					}
					if !report.Legal() {
						t.Fatalf("generated batch rejected:\n%v\n%s", op.Tx, report)
					}
					if op.Applied != nil {
						op.Applied(true)
					}
					applied++
					if applied%25 == 0 {
						if err := core.DiffEngines(schema, d, 2, 4); err != nil {
							t.Fatalf("engine divergence after %d batches: %v", applied, err)
						}
					}
				}
			}
			if applied == 0 {
				t.Fatal("no batches applied")
			}
			if err := core.DiffEngines(schema, d, 2, 4); err != nil {
				t.Fatalf("final engine divergence: %v", err)
			}
			if r := core.NewChecker(schema).Check(d); !r.Legal() {
				t.Fatalf("final instance illegal after %d committed batches:\n%s", applied, r)
			}
		})
	}
}

// TestIllegalMutantsRejectedIdentically pins the reject side: for each
// scenario a set of hand-built schema-violating batches must (a) be
// refused by the server-configured applier with the instance rolled
// back byte-identically, and (b) when forced into a copy unchecked,
// yield an instance that all three engines agree is illegal.
func TestIllegalMutantsRejectedIdentically(t *testing.T) {
	nameAttr := func(v string) map[string][]dirtree.Value {
		return map[string][]dirtree.Value{"name": {dirtree.String(v)}}
	}
	type mutant struct {
		name  string
		build func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction
	}
	mutants := map[string][]mutant{
		"whitepages": {
			{"child under person", func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction {
				// person →ch ⊤ is forbidden: no person may have children.
				tx := &txn.Transaction{}
				tx.Add("ou=bad,"+p.Reads[0], []string{"orgUnit", "orgGroup", "top"}, nil)
				return tx
			}},
			{"person without organization ancestor", func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction {
				tx := &txn.Transaction{}
				tx.Add("uid=stray", []string{"person", "top"}, nameAttr("stray"))
				return tx
			}},
		},
		"netpolicy": {
			{"person under subnet", func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction {
				// netElement →de person is forbidden; subnets are netElements.
				tx := &txn.Transaction{}
				tx.Add("cn=intruder,"+p.Parents[0], []string{"person", "top"}, nameAttr("intruder"))
				return tx
			}},
			{"adminDomain under adminDomain", func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction {
				// Every subnet lives under the o=backbone adminDomain, so a
				// nested adminDomain violates adminDomain →de adminDomain.
				tx := &txn.Transaction{}
				tx.Add("ou=inner,"+p.Parents[0], []string{"adminDomain", "top"}, nameAttr("inner"))
				return tx
			}},
		},
		"semistructured": {
			{"person without name descendant", func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction {
				tx := &txn.Transaction{}
				tx.Add("uid=bare,"+p.Parents[0], []string{"person", "top"}, nil)
				return tx
			}},
			{"country under country", func(t *testing.T, d *dirtree.Directory, p *Pools) *txn.Transaction {
				var under string
				for _, dn := range p.Parents {
					if strings.HasSuffix(dn, ",c=world") {
						under = dn
						break
					}
				}
				if under == "" {
					t.Fatal("no corporation under c=world in the pools")
				}
				tx := &txn.Transaction{}
				tx.Add("c=bad,"+under, []string{"country", "top"}, nil)
				return tx
			}},
		},
	}
	for _, sc := range scenarios() {
		for _, m := range mutants[sc.Name] {
			t.Run(sc.Name+"/"+m.name, func(t *testing.T) {
				schema := sc.NewSchema()
				rng := rand.New(rand.NewSource(5))
				d := sc.NewCorpus(schema, rng, 300)
				pools := sc.extractPools(d)
				tx := m.build(t, d, pools)

				// (a) The guarded applier refuses and rolls back exactly.
				before := ldifBytes(t, d)
				applier := txn.NewApplier(schema)
				report, err := applier.Apply(d, tx)
				if err != nil {
					t.Fatalf("mutant errored instead of reporting violations: %v", err)
				}
				if report.Legal() {
					t.Fatal("schema-violating mutant was accepted")
				}
				if after := ldifBytes(t, d); !bytes.Equal(before, after) {
					t.Fatal("rejected mutant left the instance changed")
				}

				// (b) Forced in unchecked, all three engines agree: illegal,
				// with identical witnesses (DiffEngines errors on divergence).
				forced := d.Clone()
				if err := forceApply(forced, tx); err != nil {
					t.Fatalf("unchecked apply: %v", err)
				}
				if r := core.NewChecker(schema).Check(forced); r.Legal() {
					t.Fatal("forced mutant instance judged legal")
				}
				if err := core.DiffEngines(schema, forced, 2, 4); err != nil {
					t.Fatalf("engines diverge on the mutant instance: %v", err)
				}
			})
		}
	}
}
