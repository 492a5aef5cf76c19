package semistruct

import (
	"strings"
	"testing"

	"boundschema/internal/core"
)

// TestPaperSection63Example encodes both Section 6.3 examples: persons
// need a name descendant at any depth, and countries may not nest, while
// country/corporation nesting in every other combination stays legal.
func TestPaperSection63Example(t *testing.T) {
	c := NewConstraints()
	if err := c.Require("person", core.AxisDesc, "name"); err != nil {
		t.Fatal(err)
	}
	if err := c.Forbid("country", core.AxisDesc, "country"); err != nil {
		t.Fatal(err)
	}

	// A legal mixed hierarchy: a country holding a national corporation,
	// an international corporation holding countries, and a conglomerate.
	legal := New("country",
		New("corporation",
			New("corporation", // conglomerate member
				New("person", New("contact", Leaf("name", "ada"))),
			),
		),
	)
	intl := New("corporation",
		New("country2placeholder"), // unconstrained label is fine
	)
	r, err := c.Check(legal, intl)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("legal forest rejected:\n%s", r)
	}

	// Nested countries violate the forbidden relationship.
	nested := New("country", New("region", New("country")))
	r, err = c.Check(nested)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByKind(core.ViolationForbiddenRel)) == 0 {
		t.Errorf("nested countries accepted:\n%s", r)
	}

	// A person without a name descendant violates the requirement, no
	// matter how deep the tree is.
	anon := New("person", New("address", Leaf("street", "main")))
	r, err = c.Check(anon)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByKind(core.ViolationRequiredRel)) == 0 {
		t.Errorf("nameless person accepted:\n%s", r)
	}

	// The name may sit at any depth (deeper than any fixed-length path
	// constraint could express).
	deep := New("person", New("a", New("b", New("c", Leaf("name", "x")))))
	r, err = c.Check(deep)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("deep name rejected:\n%s", r)
	}
}

func TestRequiredLabel(t *testing.T) {
	c := NewConstraints()
	if err := c.requireLabel("catalog"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Check(New("other"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByKind(core.ViolationMissingClass)) != 1 {
		t.Errorf("missing catalog not reported:\n%s", r)
	}
	r, err = c.Check(New("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Errorf("catalog present but rejected:\n%s", r)
	}
}

func TestConsistencyOverLabels(t *testing.T) {
	c := NewConstraints()
	if err := c.requireLabel("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Require("a", core.AxisChild, "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Require("b", core.AxisDesc, "a"); err != nil {
		t.Fatal(err)
	}
	res := c.Consistent()
	if res.Consistent {
		t.Errorf("cyclic label constraints should be inconsistent")
	}
	if !strings.Contains(res.Explanation, "∅⇓") {
		t.Errorf("missing explanation:\n%s", res.Explanation)
	}
}

func TestReservedLabel(t *testing.T) {
	c := NewConstraints()
	if err := c.requireLabel(core.ClassTop); err == nil {
		t.Errorf("reserved label accepted")
	}
	if _, err := c.Check(New(core.ClassTop)); err == nil {
		t.Errorf("reserved label in data accepted")
	}
}

func TestFluentBuilders(t *testing.T) {
	n := New("root").add(Leaf("k", "v"), New("m"))
	if len(n.Children) != 2 || n.Children[0].Value != "v" {
		t.Errorf("builder broken: %+v", n)
	}
}

func TestTextForestRoundTrip(t *testing.T) {
	src := `# corporate data
country
  corporation
    person
      contact
        name: ada grace
  office: hq
corporation
  country
`
	roots, err := ParseForest(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0].Label != "country" || roots[1].Label != "corporation" {
		t.Fatalf("roots = %+v", roots)
	}
	if roots[0].Children[1].Value != "hq" {
		t.Errorf("value lost: %+v", roots[0].Children[1])
	}
	var buf strings.Builder
	if err := writeForest(&buf, roots); err != nil {
		t.Fatal(err)
	}
	again, err := ParseForest(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, buf.String())
	}
	var buf2 strings.Builder
	if err := writeForest(&buf2, again); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Errorf("unstable round trip:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestTextForestErrors(t *testing.T) {
	bad := []string{
		" one-space\n",
		"a\n    grandchild-jump\n",
		":\n",
	}
	for _, src := range bad {
		if _, err := ParseForest(strings.NewReader(src)); err == nil {
			t.Errorf("ParseForest(%q) succeeded, want error", src)
		}
	}
}

func TestParseConstraint(t *testing.T) {
	c := NewConstraints()
	for _, src := range []string{
		"require catalog",
		"require person descendant name",
		"forbid country descendant country",
	} {
		if err := c.ParseConstraint(src); err != nil {
			t.Fatalf("ParseConstraint(%q): %v", src, err)
		}
	}
	roots, err := ParseForest(strings.NewReader("catalog\nperson\n  name: x\n"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Check(roots...)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Legal() {
		t.Fatalf("legal data rejected:\n%s", r)
	}
	for _, bad := range []string{"", "require", "forbid a parent b", "frob a b c"} {
		if err := c.ParseConstraint(bad); err == nil {
			t.Errorf("ParseConstraint(%q) succeeded, want error", bad)
		}
	}
}
