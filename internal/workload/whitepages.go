// Package workload builds the synthetic schemas, instances and update
// streams used by the examples, the test suites and the experiment
// harness (DESIGN.md experiment index). The centerpiece is the paper's
// running example: the corporate white-pages directory of Figures 1-3,
// plus scalable legality-preserving corpora shaped like it.
package workload

import (
	"fmt"
	"math/rand"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
)

// WhitePagesSchema builds the paper's running bounding-schema: the class
// schema of Figure 2, a structure schema matching Figure 3 and the
// Section 3/4 narrative, and the attribute schema sketched in Sections
// 1.2 and 2.2.
func WhitePagesSchema() *core.Schema {
	s := core.NewSchema()
	must := func(err error) {
		if err != nil {
			panic(err) // static schema; cannot fail
		}
	}

	// Figure 2: core hierarchy.
	must(s.Classes.AddCore("orgGroup", core.ClassTop))
	must(s.Classes.AddCore("person", core.ClassTop))
	must(s.Classes.AddCore("organization", "orgGroup"))
	must(s.Classes.AddCore("orgUnit", "orgGroup"))
	must(s.Classes.AddCore("staffMember", "person"))
	must(s.Classes.AddCore("researcher", "person"))

	// Figure 2: auxiliary classes.
	for _, x := range []string{"online", "manager", "secretary", "consultant", "facultyMember"} {
		must(s.Classes.AddAux(x))
	}
	must(s.Classes.AllowAux("orgGroup", "online"))
	must(s.Classes.AllowAux("person", "online"))
	must(s.Classes.AllowAux("staffMember", "manager", "secretary", "consultant"))
	must(s.Classes.AllowAux("researcher", "manager", "consultant", "facultyMember"))

	// Attribute schema.
	s.Attrs.Require("person", "name")
	s.Attrs.Allow("person", "cellularPhone", "telephoneNumber")
	s.Attrs.Allow("organization", "uri")
	s.Attrs.Allow("orgUnit", "location")
	s.Attrs.Allow("online", "mail", "uri")
	s.Registry.Declare("cellularPhone", dirtree.TypeTel)
	s.Registry.Declare("telephoneNumber", dirtree.TypeTel)

	// Figure 3 / Sections 3-4: structure schema.
	s.Structure.RequireClass("organization")
	s.Structure.RequireClass("orgUnit")
	s.Structure.RequireClass("person")
	s.Structure.RequireRel("orgGroup", core.AxisDesc, "person")
	s.Structure.RequireRel("orgUnit", core.AxisParent, "orgGroup")
	s.Structure.RequireRel("person", core.AxisAnc, "organization")
	must(s.Structure.ForbidRel("person", core.AxisChild, core.ClassTop))

	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// WhitePagesInstance builds the Figure 1 instance, legal w.r.t.
// WhitePagesSchema.
func WhitePagesInstance(s *core.Schema) *dirtree.Directory {
	d := dirtree.New(s.Registry)
	att := mustAdd(d, nil, "o=att", "organization", "orgGroup", "online", "top")
	att.AddValue("uri", dirtree.String("http://www.att.com/"))
	labs := mustAdd(d, att, "ou=attLabs", "orgUnit", "orgGroup", "top")
	labs.AddValue("location", dirtree.String("FP"))
	armstrong := mustAdd(d, labs, "uid=armstrong", "staffMember", "person", "top")
	armstrong.AddValue("name", dirtree.String("m armstrong"))
	db := mustAdd(d, labs, "ou=databases", "orgUnit", "orgGroup", "top")
	laks := mustAdd(d, db, "uid=laks", "researcher", "facultyMember", "person", "online", "top")
	laks.AddValue("name", dirtree.String("laks lakshmanan"))
	laks.AddValue("mail", dirtree.String("laks@cs.concordia.ca"))
	laks.AddValue("mail", dirtree.String("laks@cse.iitb.ernet.in"))
	suciu := mustAdd(d, db, "uid=suciu", "researcher", "person", "top")
	suciu.AddValue("name", dirtree.String("dan suciu"))
	return d
}

func mustAdd(d *dirtree.Directory, parent *dirtree.Entry, rdn string, classes ...string) *dirtree.Entry {
	var e *dirtree.Entry
	var err error
	if parent == nil {
		e, err = d.AddRoot(rdn, classes...)
	} else {
		e, err = d.AddChild(parent, rdn, classes...)
	}
	if err != nil {
		panic(err)
	}
	return e
}

// Corpus generates a white-pages-shaped legal instance with roughly n
// entries: one organization root, a tree of orgUnits, and heterogeneous
// person entries (researchers and staff with 0-3 mail values, optional
// phones, optional auxiliary classes), mirroring the heterogeneity the
// paper's introduction motivates. The result is legal w.r.t.
// WhitePagesSchema.
func Corpus(s *core.Schema, rng *rand.Rand, n int) *dirtree.Directory {
	d := dirtree.New(s.Registry)
	org := mustAdd(d, nil, "o=org0", "organization", "orgGroup", "online", "top")
	org.AddValue("uri", dirtree.String("http://example.org/"))

	units := []*dirtree.Entry{org}
	made := 1
	for made < n {
		parent := units[rng.Intn(len(units))]
		if rng.Intn(3) == 0 && made+2 <= n {
			u := mustAdd(d, parent, fmt.Sprintf("ou=u%d", made), "orgUnit", "orgGroup", "top")
			u.AddValue("location", dirtree.String(fmt.Sprintf("bldg-%d", rng.Intn(40))))
			made++
			// An orgUnit must employ a person (orgGroup →de person).
			addPerson(d, u, rng, made)
			made++
			units = append(units, u)
		} else {
			addPerson(d, parent, rng, made)
			made++
		}
	}
	return d
}

func addPerson(d *dirtree.Directory, parent *dirtree.Entry, rng *rand.Rand, id int) *dirtree.Entry {
	classes := []string{"person", "top"}
	switch rng.Intn(3) {
	case 0:
		classes = append(classes, "researcher")
		if rng.Intn(3) == 0 {
			classes = append(classes, "facultyMember")
		}
	case 1:
		classes = append(classes, "staffMember")
		if rng.Intn(4) == 0 {
			classes = append(classes, "manager")
		}
	}
	nmail := rng.Intn(4)
	if nmail > 0 {
		classes = append(classes, "online")
	}
	p := mustAdd(d, parent, fmt.Sprintf("uid=p%d", id), classes...)
	p.AddValue("name", dirtree.String(fmt.Sprintf("person %d", id)))
	for m := 0; m < nmail; m++ {
		p.AddValue("mail", dirtree.String(fmt.Sprintf("p%d-%d@example.org", id, m)))
	}
	if rng.Intn(2) == 0 {
		p.AddValue("cellularPhone", dirtree.Tel(fmt.Sprintf("+1 555 %04d", rng.Intn(10000))))
	}
	return p
}

// growLegal appends roughly n entries to a white-pages instance while
// preserving legality, for incremental-update experiments.
func growLegal(d *dirtree.Directory, rng *rand.Rand, n int) {
	start := d.Len()
	groups := append([]*dirtree.Entry(nil), d.ClassEntries("orgGroup")...)
	for added := 0; added < n; {
		parent := groups[rng.Intn(len(groups))]
		id := start + added
		if rng.Intn(3) == 0 && added+2 <= n {
			u, err := d.AddChild(parent, fmt.Sprintf("ou=g%d", id), "orgUnit", "orgGroup", "top")
			if err != nil {
				added++ // name collision; skip
				continue
			}
			addPerson(d, u, rng, id+1)
			groups = append(groups, u)
			added += 2
		} else {
			addPerson(d, parent, rng, id)
			added++
		}
	}
}
