package ldif

import (
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
)

const whitePagesLDIF = `version: 1

# The Figure 1 corporate white pages instance.
dn: o=att
objectClass: organization
objectClass: orgGroup
objectClass: online
objectClass: top
uri: http://www.att.com/

dn: ou=attLabs,o=att
objectClass: orgUnit
objectClass: orgGroup
objectClass: top
location: FP

dn: uid=armstrong,ou=attLabs,o=att
objectClass: staffMember
objectClass: person
objectClass: top
name: m armstrong

dn: ou=databases,ou=attLabs,o=att
objectClass: orgUnit
objectClass: orgGroup
objectClass: top

dn: uid=laks,ou=databases,ou=attLabs,o=att
objectClass: researcher
objectClass: facultyMember
objectClass: person
objectClass: online
objectClass: top
name: laks lakshmanan
mail: laks@cs.concordia.ca
mail: laks@cse.iitb.ernet.in

dn: uid=suciu,ou=databases,ou=attLabs,o=att
objectClass: researcher
objectClass: person
objectClass: top
name: dan suciu
`

func TestReadWhitePages(t *testing.T) {
	d, err := ReadDirectory(strings.NewReader(whitePagesLDIF), dirtree.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 6 {
		t.Fatalf("Len = %d, want 6", d.Len())
	}
	laks := d.ByDN("uid=laks,ou=databases,ou=attLabs,o=att")
	if laks == nil {
		t.Fatal("laks not found")
	}
	if !laks.HasClass("facultyMember") || !laks.HasClass("online") {
		t.Errorf("laks classes = %v", laks.Classes())
	}
	if n := len(laks.Attr("mail")); n != 2 {
		t.Errorf("laks has %d mail values, want 2", n)
	}
	if got := len(d.ClassEntries("person")); got != 3 {
		t.Errorf("persons = %d, want 3", got)
	}
}

func TestRoundTrip(t *testing.T) {
	d, err := ReadDirectory(strings.NewReader(whitePagesLDIF), dirtree.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDirectory(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDirectory(bytes.NewReader(buf.Bytes()), dirtree.NewRegistry())
	if err != nil {
		t.Fatalf("reload: %v\n%s", err, buf.String())
	}
	if d2.Len() != d.Len() {
		t.Fatalf("reload len = %d, want %d", d2.Len(), d.Len())
	}
	if d2.String() != d.String() {
		t.Errorf("outline changed:\n%s\nvs\n%s", d2.String(), d.String())
	}
	for _, e := range d.Entries() {
		e2 := d2.ByDN(e.DN())
		if e2 == nil {
			t.Fatalf("lost %s", e.DN())
		}
		if len(e2.AttrNames()) != len(e.AttrNames()) {
			t.Errorf("%s attribute names changed", e.DN())
		}
	}
}

func TestBase64AndFolding(t *testing.T) {
	d := dirtree.New(nil)
	e, _ := d.AddRoot("o=x", "top")
	long := strings.Repeat("abcdefghij", 30)
	e.AddValue("description", dirtree.String(long))
	e.AddValue("note", dirtree.String(" leading space"))
	e.AddValue("other", dirtree.String("été")) // non-ASCII forces base64
	e.AddValue("colon", dirtree.String(":starts with colon"))

	var buf bytes.Buffer
	if err := WriteDirectory(&buf, d); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > 76 {
			t.Errorf("line exceeds 76 columns: %q", line)
		}
	}
	d2, err := ReadDirectory(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	e2 := d2.ByDN("o=x")
	for _, attr := range []string{"description", "note", "other", "colon"} {
		want := e.Attr(attr)[0].String()
		got := e2.Attr(attr)
		if len(got) != 1 || got[0].String() != want {
			t.Errorf("attr %s: got %v, want %q", attr, got, want)
		}
	}
}

func TestChangeRecords(t *testing.T) {
	src := `dn: uid=new,o=att
changetype: add
objectClass: person
objectClass: top
name: new person

dn: uid=old,o=att
changetype: delete
`
	recs, err := NewReader(strings.NewReader(src)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Change != ChangeAdd || len(recs[0].Attrs) != 3 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].Change != ChangeDelete || len(recs[1].Attrs) != 0 {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestReaderErrors(t *testing.T) {
	bad := []string{
		"objectClass: top\n",                                       // missing dn
		"dn: o=x\nbadline\n",                                       // malformed attr line
		"dn: o=x\nobjectClass:: !!!\n",                             // bad base64
		"dn: o=x\nchangetype: modify\n",                            // unsupported changetype
		"dn: o=x\nchangetype: delete\nobjectClass: top\n",          // delete with attrs
		"dn: uid=a,o=missing\nobjectClass: top\n",                  // orphan in content stream
		"dn: o=x\nchangetype: add\nobjectClass: top\n",             // change record in content stream
		"dn: o=x\nobjectClass: top\n\ndn: o=x\nobjectClass: top\n", // duplicate DN
	}
	for _, src := range bad {
		if _, err := ReadDirectory(strings.NewReader(src), nil); err == nil {
			t.Errorf("ReadDirectory(%q) succeeded, want error", src)
		}
	}
}

func TestTypedAttributeParsing(t *testing.T) {
	reg := dirtree.NewRegistry()
	reg.Declare("age", dirtree.TypeInt)
	src := "dn: uid=x\nobjectClass: top\nage: 42\n"
	d, err := ReadDirectory(strings.NewReader(src), reg)
	if err != nil {
		t.Fatal(err)
	}
	v := d.ByDN("uid=x").Attr("age")[0]
	if v.Type() != dirtree.TypeInt || v.Int() != 42 {
		t.Errorf("age = %v", v)
	}
	badSrc := "dn: uid=x\nobjectClass: top\nage: forty\n"
	if _, err := ReadDirectory(strings.NewReader(badSrc), reg); err == nil {
		t.Errorf("mistyped attribute accepted")
	}
}

func TestSplitDN(t *testing.T) {
	cases := []struct {
		dn, rdn, parent string
		wantErr         bool
	}{
		{"o=att", "o=att", "", false},
		{"ou=a,o=att", "ou=a", "o=att", false},
		{"uid=x,ou=a,o=att", "uid=x", "ou=a,o=att", false},
		{"", "", "", true},
		{",o=att", "", "", true},
		{"o=att,", "", "", true},
	}
	for _, c := range cases {
		rdn, parent, err := SplitDN(c.dn)
		if (err != nil) != c.wantErr {
			t.Errorf("SplitDN(%q) err = %v", c.dn, err)
			continue
		}
		if err == nil && (rdn != c.rdn || parent != c.parent) {
			t.Errorf("SplitDN(%q) = %q,%q want %q,%q", c.dn, rdn, parent, c.rdn, c.parent)
		}
	}
}

func TestEOFOnEmptyInput(t *testing.T) {
	r := NewReader(strings.NewReader("\n# only comments\n\n"))
	if _, err := r.next(); err != io.EOF {
		t.Errorf("Next on empty input = %v, want io.EOF", err)
	}
}

// Property: write-read round trips preserve random directories exactly,
// including adversarial attribute values.
func TestQuickRoundTrip(t *testing.T) {
	values := []string{
		"plain", " leading", "trailing ", "with\nnewline", "unicode ü",
		":" + "colon", "<url>", strings.Repeat("long", 100), "",
	}
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dirtree.New(nil)
		var all []*dirtree.Entry
		n := int(size%40) + 1
		for i := 0; i < n; i++ {
			var e *dirtree.Entry
			if len(all) == 0 || rng.Intn(5) == 0 {
				e, _ = d.AddRoot("r="+strconv.Itoa(i), "top")
			} else {
				e, _ = d.AddChild(all[rng.Intn(len(all))], "n="+strconv.Itoa(i), "top", "thing")
			}
			for k := 0; k < rng.Intn(3); k++ {
				e.AddValue("v"+strconv.Itoa(k), dirtree.String(values[rng.Intn(len(values))]))
			}
			all = append(all, e)
		}
		var buf bytes.Buffer
		if err := WriteDirectory(&buf, d); err != nil {
			return false
		}
		d2, err := ReadDirectory(bytes.NewReader(buf.Bytes()), nil)
		if err != nil || d2.Len() != d.Len() {
			return false
		}
		for _, e := range d.Entries() {
			e2 := d2.ByDN(e.DN())
			if e2 == nil {
				return false
			}
			for _, name := range e.AttrNames() {
				vs, vs2 := e.Attr(name), e2.Attr(name)
				if len(vs) != len(vs2) {
					return false
				}
				for i := range vs {
					if vs[i].String() != vs2[i].String() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
