package boundschema_test

import (
	"os"
	"path/filepath"
	"testing"

	"boundschema"
	"boundschema/internal/ldif"
	"boundschema/internal/txn"
)

// The conformance suite drives the full file-based path — schema DSL →
// LDIF instance → checker / applier — over the corpus in testdata/.

func loadTestSchema(t *testing.T, name string) *boundschema.Schema {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := boundschema.ParseSchema(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func loadTestInstance(t *testing.T, name string, reg *boundschema.Registry) *boundschema.Directory {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := boundschema.ReadLDIF(f, reg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConformanceFigure1Legal(t *testing.T) {
	s := loadTestSchema(t, "whitepages.bs")
	d := loadTestInstance(t, "figure1.ldif", s.Registry)
	if d.Len() != 6 {
		t.Fatalf("figure1 has %d entries, want 6", d.Len())
	}
	if r := boundschema.Check(s, d); !r.Legal() {
		t.Fatalf("figure1 must be legal:\n%s", r)
	}
	if !boundschema.CheckConsistency(s).Consistent {
		t.Fatalf("white-pages schema must be consistent")
	}
}

func TestConformanceBrokenInstance(t *testing.T) {
	s := loadTestSchema(t, "whitepages.bs")
	d := loadTestInstance(t, "figure1-broken.ldif", s.Registry)
	r := boundschema.Check(s, d)
	if r.Legal() {
		t.Fatalf("seeded problems not detected")
	}
	want := map[string]int{
		"missing-attribute":      1, // suciu has no name
		"required-relationship":  1, // ou=empty has no person descendant
		"forbidden-relationship": 1, // laks has a child (cn=gadget)
	}
	got := map[string]int{}
	for _, v := range r.Violations {
		got[v.Kind.String()]++
	}
	for kind, n := range want {
		if got[kind] < n {
			t.Errorf("%v violations = %d, want >= %d:\n%s", kind, got[kind], n, r)
		}
	}
}

func TestConformanceCycleSchema(t *testing.T) {
	s := loadTestSchema(t, "cycle.bs")
	res := boundschema.CheckConsistency(s)
	if res.Consistent {
		t.Fatalf("cycle.bs must be inconsistent")
	}
	if res.Explanation == "" {
		t.Fatalf("missing derivation")
	}
	if _, err := boundschema.Materialize(s); err == nil {
		t.Fatalf("materializing an inconsistent schema must fail")
	}
}

func applyChanges(t *testing.T, s *boundschema.Schema, d *boundschema.Directory, file string) *boundschema.Report {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ldif.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := txn.FromRecords(recs, s.Registry)
	if err != nil {
		t.Fatal(err)
	}
	app := boundschema.NewApplier(s)
	r, err := app.Apply(d, tx)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConformanceGoodChanges(t *testing.T) {
	s := loadTestSchema(t, "whitepages.bs")
	d := loadTestInstance(t, "figure1.ldif", s.Registry)
	if r := applyChanges(t, s, d, "changes-good.ldif"); !r.Legal() {
		t.Fatalf("good changes rejected:\n%s", r)
	}
	if d.ByDN("uid=pat,ou=networking,ou=attLabs,o=att") == nil {
		t.Errorf("change not applied")
	}
	if r := boundschema.Check(s, d); !r.Legal() {
		t.Fatalf("instance illegal after good changes:\n%s", r)
	}
}

func TestConformanceBadChanges(t *testing.T) {
	s := loadTestSchema(t, "whitepages.bs")
	d := loadTestInstance(t, "figure1.ldif", s.Registry)
	before := d.String()
	if r := applyChanges(t, s, d, "changes-bad.ldif"); r.Legal() {
		t.Fatalf("bad changes accepted")
	}
	if d.String() != before {
		t.Fatalf("instance mutated despite rejection")
	}
}

// TestConformanceSchemaRoundTrip: every schema file reparses from its
// canonical formatting.
func TestConformanceSchemaRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.bs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no schema files in testdata")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, name, err := boundschema.ParseSchema(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		text := boundschema.FormatSchema(s, name)
		if _, _, err := boundschema.ParseSchema(text); err != nil {
			t.Errorf("%s: canonical form does not reparse: %v", file, err)
		}
	}
}

// TestConformanceInstanceRoundTrip: every LDIF file survives a
// write/read cycle.
func TestConformanceInstanceRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ldif"))
	if err != nil {
		t.Fatal(err)
	}
	s := loadTestSchema(t, "whitepages.bs")
	for _, file := range files {
		if filepath.Base(file) == "changes-good.ldif" || filepath.Base(file) == "changes-bad.ldif" {
			continue // change records, not content
		}
		d := loadTestInstance(t, filepath.Base(file), s.Registry)
		tmp := filepath.Join(t.TempDir(), "out.ldif")
		f, err := os.Create(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if err := boundschema.WriteLDIF(f, d); err != nil {
			t.Fatal(err)
		}
		f.Close()
		g, err := os.Open(tmp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := boundschema.ReadLDIF(g, s.Registry)
		g.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if back.Len() != d.Len() || back.String() != d.String() {
			t.Errorf("%s: round trip changed the instance", file)
		}
	}
}
