package filter

import (
	"runtime"
	"testing"
	"testing/quick"

	"boundschema/internal/dirtree"
)

func person(t *testing.T) *dirtree.Entry {
	t.Helper()
	reg := dirtree.NewRegistry()
	reg.Declare("age", dirtree.TypeInt)
	reg.Declare("active", dirtree.TypeBool)
	d := dirtree.New(reg)
	e, err := d.AddRoot("uid=laks", "researcher", "person", "top")
	if err != nil {
		t.Fatal(err)
	}
	e.AddValue("name", dirtree.String("Laks Lakshmanan"))
	e.AddValue("mail", dirtree.String("laks@cs.concordia.ca"))
	e.AddValue("mail", dirtree.String("laks@cse.iitb.ernet.in"))
	e.AddValue("age", dirtree.Int(40))
	e.AddValue("active", dirtree.Bool(true))
	return e
}

func TestMatchBasics(t *testing.T) {
	e := person(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"(objectClass=person)", true},
		{"(objectClass=orgUnit)", false},
		{"(name=Laks Lakshmanan)", true},
		{"(name=laks lakshmanan)", false}, // equality is case-sensitive
		{"(name~=LAKS   lakshmanan)", true},
		{"(mail=laks@cs.concordia.ca)", true},
		{"(mail=*)", true},
		{"(fax=*)", false},
		{"(mail=laks@*)", true},
		{"(mail=*iitb*)", true},
		{"(mail=*concordia.ca)", true},
		{"(mail=laks@*ernet*in)", true},
		{"(mail=zzz*)", false},
		{"(age>=40)", true},
		{"(age>=41)", false},
		{"(age<=40)", true},
		{"(age<=39)", false},
		{"(age>=notanumber)", false},
		{"(&(objectClass=person)(mail=*))", true},
		{"(&(objectClass=person)(fax=*))", false},
		{"(|(objectClass=orgUnit)(objectClass=person))", true},
		{"(|(objectClass=orgUnit)(objectClass=router))", false},
		{"(!(objectClass=orgUnit))", true},
		{"(!(objectClass=person))", false},
		{"(&)", true},
		{"(|)", false},
		{"(&(|(mail=*iitb*)(mail=*acm*))(!(objectClass=orgUnit)))", true},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := f.Matches(e); got != c.want {
			t.Errorf("%q matches = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestTypedEquality pins the satellite fix: equality parses the query
// value through the registry exactly like >=/<= do, so typed attributes
// match semantically ((port=080) ≡ (port>=80)&(port<=80)) while string
// attributes — IP addresses among them — keep exact text semantics.
func TestTypedEquality(t *testing.T) {
	reg := dirtree.NewRegistry()
	reg.Declare("bandwidth", dirtree.TypeInt)
	reg.Declare("active", dirtree.TypeBool)
	d := dirtree.New(reg)
	e, err := d.AddRoot("cn=host1", "host")
	if err != nil {
		t.Fatal(err)
	}
	e.AddValue("bandwidth", dirtree.Int(80))
	e.AddValue("ipAddress", dirtree.String("10.0.0.5"))
	e.AddValue("active", dirtree.Bool(true))

	cases := []struct {
		src  string
		want bool
	}{
		{"(bandwidth=80)", true},
		{"(bandwidth=080)", true}, // was false: raw string comparison
		{"(bandwidth= 80)", true}, // ParseValue trims, like the range ops
		{"(bandwidth=81)", false},
		{"(bandwidth=notanumber)", false},           // parse error → string fallback
		{"(&(bandwidth>=80)(bandwidth<=80))", true}, // must agree with =080
		{"(ipAddress=10.0.0.5)", true},
		{"(ipAddress=10.0.0.05)", false}, // strings stay exact-text
		{"(active=TRUE)", true},
		{"(active=1)", true}, // boolean synonym now parses like >=/<=
		{"(active=FALSE)", false},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := f.Matches(e); got != c.want {
			t.Errorf("%q matches = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"objectClass=person",
		"(objectClass=person",
		"(=value)",
		"(attr)",
		"(attr>5)",
		"(a=b)(c=d)",
		"(!(a=b)(c=d))",
		"(a=b\\zz)",
		"(a=b\\2)",
		"(a=(b)",
		"(mail>=a*b)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	e := person(t)
	e.AddValue("cn", dirtree.String("weird (value) with * and \\"))
	f := Compare{Attr: "cn", Op: OpEqual, Value: "weird (value) with * and \\"}
	src := f.String()
	back, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if !back.Matches(e) {
		t.Errorf("escaped filter %q does not match", src)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"(objectClass=person)",
		"(mail=*)",
		"(mail=laks@*)",
		"(mail=*iitb*ernet*)",
		"(age>=40)",
		"(age<=40)",
		"(name~=laks)",
		"(&(objectClass=person)(mail=*))",
		"(|(a=1)(b=2)(c=3))",
		"(!(a=1))",
	}
	for _, src := range srcs {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		again, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, f.String(), err)
		}
		if again.String() != f.String() {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, f.String(), again.String())
		}
	}
}

func TestClassIs(t *testing.T) {
	e := person(t)
	if !ClassIs("person").Matches(e) {
		t.Errorf("ClassIs(person) should match")
	}
	if ClassIs("orgUnit").Matches(e) {
		t.Errorf("ClassIs(orgUnit) should not match")
	}
	if got := ClassIs("person").String(); got != "(objectClass=person)" {
		t.Errorf("ClassIs rendering = %q", got)
	}
}

func TestCollapsedDoubleStar(t *testing.T) {
	e := person(t)
	f, err := Parse("(mail=laks@**ca)")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(e) {
		t.Errorf("double star pattern should behave like single star")
	}
}

// Property: De Morgan — !(a&b) behaves as (!a)|(!b) on arbitrary class
// combinations.
func TestQuickDeMorgan(t *testing.T) {
	reg := dirtree.NewRegistry()
	d := dirtree.New(reg)
	classes := []string{"a", "b"}
	f := func(hasA, hasB bool) bool {
		cs := []string{"top"}
		if hasA {
			cs = append(cs, classes[0])
		}
		if hasB {
			cs = append(cs, classes[1])
		}
		e, err := d.AddRoot("x="+itoa(len(d.Entries())), cs...)
		if err != nil {
			return false
		}
		lhs := Not{Sub: And{ClassIs("a"), ClassIs("b")}}
		rhs := Or{Not{Sub: ClassIs("a")}, Not{Sub: ClassIs("b")}}
		return lhs.Matches(e) == rhs.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(digits[i%10]) + s
		i /= 10
	}
	return s
}

// TestFilterStringLinear pins that rendering a nested filter costs space
// linear in its size: doubling the depth of a (! chain at most about
// doubles the bytes String allocates.
func TestFilterStringLinear(t *testing.T) {
	alloc := func(depth int) uint64 {
		var f Filter = Compare{Attr: "name", Op: OpEqual, Value: "x"}
		for i := 0; i < depth; i++ {
			f = Not{Sub: f}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := f.String()
		runtime.ReadMemStats(&after)
		if want := 3*depth + len("(name=x)"); len(s) != want {
			t.Fatalf("depth %d rendered %d bytes, want %d", depth, len(s), want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(10000), alloc(20000)
	t.Logf("String allocated %d bytes at depth 10000, %d at depth 20000", small, large)
	if float64(large) > 2.1*float64(small) {
		t.Errorf("doubling the depth multiplied String's allocation by %.2f, want at most 2.1", float64(large)/float64(small))
	}
}
