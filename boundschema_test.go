package boundschema_test

import (
	"bytes"
	"strings"
	"testing"

	"boundschema"
)

const apiSchemaSrc = `
schema team {
  attribute name: string
  attribute mail: string
  class group extends top { }
  class person extends top {
    aux online
    requires name
  }
  auxclass online { allows mail }
  require class group
  require group descendant person
  forbid person child top
}
`

// TestPublicAPIEndToEnd drives the whole facade: parse, build, check,
// update, serialize, reload, consistency, materialize.
func TestPublicAPIEndToEnd(t *testing.T) {
	schema, name, err := boundschema.ParseSchema(apiSchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	if name != "team" {
		t.Errorf("name = %q", name)
	}

	res := boundschema.CheckConsistency(schema)
	if !res.Consistent {
		t.Fatalf("schema inconsistent: %s", res.Explanation)
	}

	dir := boundschema.NewDirectory(schema.Registry)
	eng, err := dir.AddRoot("ou=eng", "group", boundschema.ClassTop)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := dir.AddChild(eng, "uid=ada", "person", "online", boundschema.ClassTop)
	if err != nil {
		t.Fatal(err)
	}
	ada.AddValue("name", boundschema.String("Ada"))
	ada.AddValue("mail", boundschema.String("ada@example.org"))

	if !boundschema.Legal(schema, dir) {
		t.Fatalf("instance should be legal:\n%s", boundschema.Check(schema, dir))
	}

	// Update through the applier; a violating delete must roll back.
	app := boundschema.NewApplier(schema)
	tx := &boundschema.Transaction{}
	tx.Delete("uid=ada,ou=eng")
	report, err := app.Apply(dir, tx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Legal() {
		t.Fatalf("deleting the only person must be rejected")
	}
	if dir.Len() != 2 {
		t.Fatalf("rollback failed: len=%d", dir.Len())
	}

	// LDIF round trip.
	var buf bytes.Buffer
	if err := boundschema.WriteLDIF(&buf, dir); err != nil {
		t.Fatal(err)
	}
	back, err := boundschema.ReadLDIF(bytes.NewReader(buf.Bytes()), schema.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != dir.Len() {
		t.Fatalf("LDIF round trip changed size")
	}
	if !boundschema.Legal(schema, back) {
		t.Fatalf("round-tripped instance illegal")
	}

	// Schema formatting round trip.
	text := boundschema.FormatSchema(schema, "team")
	if !strings.Contains(text, "require group descendant person") {
		t.Errorf("formatted schema missing structure element:\n%s", text)
	}
	schema2, _, err := boundschema.ParseSchema(text)
	if err != nil {
		t.Fatal(err)
	}
	if !boundschema.Legal(schema2, dir) {
		t.Fatalf("reparsed schema rejects the instance")
	}

	// Constructive consistency.
	witness, err := boundschema.Materialize(schema)
	if err != nil {
		t.Fatal(err)
	}
	if !boundschema.Legal(schema, witness) {
		t.Fatalf("witness illegal")
	}
}

func TestFacadeValueConstructors(t *testing.T) {
	if boundschema.String("x").String() != "x" {
		t.Error("String")
	}
	if boundschema.Int(3).Int() != 3 {
		t.Error("Int")
	}
	if !boundschema.Bool(true).Bool() {
		t.Error("Bool")
	}
	if boundschema.DN("o=x").String() != "o=x" {
		t.Error("DN")
	}
	if boundschema.Tel("+1").String() != "+1" {
		t.Error("Tel")
	}
	if boundschema.NewRegistry() == nil || boundschema.NewSchema() == nil {
		t.Error("constructors")
	}
}

func TestFacadeEvolution(t *testing.T) {
	old, _, err := boundschema.ParseSchema(apiSchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := boundschema.NewDirectory(old.Registry)
	g, _ := dir.AddRoot("ou=eng", "group", boundschema.ClassTop)
	p, _ := dir.AddChild(g, "uid=ada", "person", boundschema.ClassTop)
	p.AddValue("name", boundschema.String("Ada"))
	if !boundschema.Legal(old, dir) {
		t.Fatal("fixture must be legal")
	}

	new := old.Clone()
	new.Attrs.Allow("person", "homePage") // lightweight
	plan := boundschema.PlanEvolution(old, new)
	if !plan.Lightweight() {
		t.Fatalf("adding an allowed attribute must be lightweight:\n%s", plan)
	}

	new3 := old.Clone()
	new3.Attrs.Require("person", "mail")
	plan3 := boundschema.PlanEvolution(old, new3)
	if plan3.Lightweight() {
		t.Fatalf("new required attribute must not be lightweight")
	}
	r := boundschema.CheckEvolution(new3, dir, plan3)
	if r.Legal() {
		t.Fatalf("ada has no mail; evolution check must fail")
	}
}
