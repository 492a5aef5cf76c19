// Bschema is the bounding-schema command line tool: it validates LDAP
// directory instances against bounding-schemas, applies update
// transactions with incremental legality checking, decides schema
// consistency, and evaluates hierarchical selection queries.
//
// Usage:
//
//	bschema check      -schema S.bs -instance D.ldif
//	bschema consistent -schema S.bs [-explain] [-witness out.ldif]
//	bschema apply      -schema S.bs -instance D.ldif -changes C.ldif [-o out.ldif]
//	bschema query      -instance D.ldif -q '(minus (select (objectClass=a)) ...)'
//	bschema search     -instance D.ldif -filter '(objectClass=person)' [-base DN]
//	bschema lint       -schema S.bs
//	bschema format     -schema S.bs
//	bschema materialize -schema S.bs
//	bschema carve      -schema S.bs -instance D.ldif [-shards N] [-o dir]
//
// Schemas use the schema definition language (see ParseSchema); instances
// use LDIF content records; changes use LDIF change records (changetype
// add/delete).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"boundschema"
	"boundschema/internal/core"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/ldif"
	"boundschema/internal/semistruct"
	"boundschema/internal/shard"
	"boundschema/internal/txn"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = cmdCheck(os.Args[2:])
	case "consistent":
		err = cmdConsistent(os.Args[2:])
	case "apply":
		err = cmdApply(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "elements":
		err = cmdElements(os.Args[2:])
	case "format":
		err = cmdFormat(os.Args[2:])
	case "materialize":
		err = cmdMaterialize(os.Args[2:])
	case "carve":
		err = cmdCarve(os.Args[2:])
	case "sscheck":
		err = cmdSSCheck(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "bschema: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bschema: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bschema <command> [flags]

commands:
  check        test an instance's legality against a schema
  consistent   decide whether a schema admits any legal instance
  apply        apply an LDIF change stream with incremental checking
  query        evaluate a hierarchical selection query
  search       evaluate an LDAP filter
  lint         report schema quality findings (redundant elements, dead classes)
  elements     list a schema's elements, its non-redundant cover and derived facts
  format       canonicalize a schema definition
  materialize  emit a legal witness instance for a consistent schema
  carve        split a legal instance into per-shard instances plus a
               shard map for bsrouter (Theorem 4.1 subtree sharding)
  sscheck      check semi-structured data (outline files) against label
               constraints (Section 6.3)`)
}

func loadSchema(path string) (*boundschema.Schema, string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	return boundschema.ParseSchema(string(src))
}

func loadInstance(path string, reg *boundschema.Registry) (*boundschema.Directory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return boundschema.ReadLDIF(f, reg)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	instPath := fs.String("instance", "", "LDIF instance file")
	maxWitnesses := fs.Int("max-witnesses", 20, "cap violations reported per element (0 = all)")
	fs.Parse(args)
	if *schemaPath == "" || *instPath == "" {
		return fmt.Errorf("check: -schema and -instance are required")
	}
	s, name, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	d, err := loadInstance(*instPath, s.Registry)
	if err != nil {
		return err
	}
	checker := boundschema.NewChecker(s)
	checker.MaxWitnesses = *maxWitnesses
	report := checker.Check(d)
	fmt.Printf("schema %s, instance %s (%d entries): %s\n", name, *instPath, d.Len(), report)
	if !report.Legal() {
		os.Exit(1)
	}
	return nil
}

func cmdConsistent(args []string) error {
	fs := flag.NewFlagSet("consistent", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	explain := fs.Bool("explain", false, "print the inconsistency derivation")
	witness := fs.String("witness", "", "write a witness instance to this LDIF file")
	fs.Parse(args)
	if *schemaPath == "" {
		return fmt.Errorf("consistent: -schema is required")
	}
	s, name, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	res := boundschema.CheckConsistency(s)
	fmt.Printf("schema %s: consistent=%v (%d closed facts)\n", name, res.Consistent, res.Facts)
	if len(res.Unsatisfiable) > 0 {
		fmt.Printf("unsatisfiable classes: %v\n", res.Unsatisfiable)
	}
	if !res.Consistent {
		if *explain {
			fmt.Print(res.Explanation)
		}
		os.Exit(1)
	}
	if *witness != "" {
		d, err := boundschema.Materialize(s)
		if err != nil {
			return err
		}
		f, err := os.Create(*witness)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := boundschema.WriteLDIF(f, d); err != nil {
			return err
		}
		fmt.Printf("witness with %d entries written to %s\n", d.Len(), *witness)
	}
	return nil
}

func cmdApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	instPath := fs.String("instance", "", "LDIF instance file")
	changesPath := fs.String("changes", "", "LDIF change records (changetype add/delete)")
	out := fs.String("o", "", "write the updated instance to this LDIF file")
	fs.Parse(args)
	if *schemaPath == "" || *instPath == "" || *changesPath == "" {
		return fmt.Errorf("apply: -schema, -instance and -changes are required")
	}
	s, _, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	d, err := loadInstance(*instPath, s.Registry)
	if err != nil {
		return err
	}
	cf, err := os.Open(*changesPath)
	if err != nil {
		return err
	}
	recs, err := ldif.NewReader(cf).ReadAll()
	cf.Close()
	if err != nil {
		return err
	}
	tx, err := txn.FromRecords(recs, s.Registry)
	if err != nil {
		return err
	}
	report, err := boundschema.NewApplier(s).Apply(d, tx)
	if err != nil {
		return err
	}
	if !report.Legal() {
		fmt.Printf("transaction rejected (instance unchanged):\n%s\n", report)
		os.Exit(1)
	}
	fmt.Printf("transaction applied: %d operations, %d entries now\n", tx.Len(), d.Len())
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		return boundschema.WriteLDIF(f, d)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	instPath := fs.String("instance", "", "LDIF instance file")
	q := fs.String("q", "", "hierarchical selection query (s-expression)")
	explain := fs.Bool("explain", false, "print per-operator evaluation statistics")
	optimizeWith := fs.String("optimize", "", "schema file: rewrite the query using its guarantees (assumes a legal instance)")
	fs.Parse(args)
	if *instPath == "" || *q == "" {
		return fmt.Errorf("query: -instance and -q are required")
	}
	d, err := loadInstance(*instPath, nil)
	if err != nil {
		return err
	}
	query, err := hquery.Parse(*q)
	if err != nil {
		return err
	}
	if *optimizeWith != "" {
		s, _, err := loadSchema(*optimizeWith)
		if err != nil {
			return err
		}
		before := hquery.String(query)
		query = core.OptimizeQuery(query, s)
		if after := hquery.String(query); after != before {
			fmt.Fprintf(os.Stderr, "optimized: %s\n", after)
		}
	}
	var results []*boundschema.Entry
	if *explain {
		var st *hquery.Stats
		results, st = hquery.EvalWithStats(query, hquery.NewBinding(d))
		fmt.Fprintf(os.Stderr, "%stotal operand work: %d (|D| = %d)\n", st, st.TotalWork(), d.Len())
	} else {
		results = hquery.Eval(query, hquery.NewBinding(d))
	}
	for _, e := range results {
		fmt.Println(e.DN())
	}
	fmt.Fprintf(os.Stderr, "%d result(s)\n", len(results))
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	instPath := fs.String("instance", "", "LDIF instance file")
	fsrc := fs.String("filter", "", "LDAP search filter")
	base := fs.String("base", "", "base DN (default: whole forest)")
	fs.Parse(args)
	if *instPath == "" || *fsrc == "" {
		return fmt.Errorf("search: -instance and -filter are required")
	}
	d, err := loadInstance(*instPath, nil)
	if err != nil {
		return err
	}
	f, err := filter.Parse(*fsrc)
	if err != nil {
		return err
	}
	view := d.All()
	if *base != "" {
		e := d.ByDN(*base)
		if e == nil {
			return fmt.Errorf("search: base %q not found", *base)
		}
		view = d.SubtreeView(e)
	}
	n := 0
	for _, e := range view.Entries() {
		if f.Matches(e) {
			fmt.Println(e.DN())
			n++
		}
	}
	fmt.Fprintf(os.Stderr, "%d result(s)\n", n)
	return nil
}

func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	fs.Parse(args)
	if *schemaPath == "" {
		return fmt.Errorf("lint: -schema is required")
	}
	s, name, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	findings := core.Lint(s)
	if len(findings) == 0 {
		fmt.Printf("schema %s: no findings\n", name)
		return nil
	}
	fmt.Printf("schema %s: %d finding(s)\n", name, len(findings))
	for _, f := range findings {
		fmt.Println("  " + f.String())
	}
	os.Exit(1)
	return nil
}

func cmdElements(args []string) error {
	fs := flag.NewFlagSet("elements", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	derived := fs.Bool("derived", false, "also print every element the inference closure derives")
	fs.Parse(args)
	if *schemaPath == "" {
		return fmt.Errorf("elements: -schema is required")
	}
	s, name, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	fmt.Printf("schema %s elements:\n", name)
	for _, el := range s.Elements() {
		fmt.Println("  " + el.ElementString())
	}
	kept, dropped := core.Cover(s)
	fmt.Printf("cover (%d of %d structure elements):\n", len(kept), len(kept)+len(dropped))
	for _, el := range kept {
		fmt.Println("  " + el.ElementString())
	}
	if len(dropped) > 0 {
		fmt.Println("dropped, implied by the cover:")
	}
	for _, el := range dropped {
		fmt.Println("  " + el.Element.ElementString())
		fmt.Print("    " + strings.ReplaceAll(strings.TrimSuffix(el.Derivation, "\n"), "\n", "\n    ") + "\n")
	}
	if *derived {
		in := core.Infer(s)
		fmt.Printf("closure (%d facts):\n", in.NumFacts())
		for _, el := range in.Derived() {
			fmt.Println("  " + el.ElementString())
		}
	}
	return nil
}

func cmdFormat(args []string) error {
	fs := flag.NewFlagSet("format", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	fs.Parse(args)
	if *schemaPath == "" {
		return fmt.Errorf("format: -schema is required")
	}
	s, name, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	fmt.Print(boundschema.FormatSchema(s, name))
	return nil
}

func cmdSSCheck(args []string) error {
	fs := flag.NewFlagSet("sscheck", flag.ExitOnError)
	dataPath := fs.String("data", "", "semi-structured data file (indented outline)")
	var constraints multiFlag
	fs.Var(&constraints, "c", "constraint (repeatable): 'require L', 'require A descendant B', 'forbid A child B'")
	fs.Parse(args)
	if *dataPath == "" || len(constraints) == 0 {
		return fmt.Errorf("sscheck: -data and at least one -c are required")
	}
	c := semistruct.NewConstraints()
	for _, src := range constraints {
		if err := c.ParseConstraint(src); err != nil {
			return err
		}
	}
	if res := c.Consistent(); !res.Consistent {
		fmt.Printf("constraints are unsatisfiable:\n%s", res.Explanation)
		os.Exit(1)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	roots, err := semistruct.ParseForest(f)
	if err != nil {
		return err
	}
	report, err := c.Check(roots...)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", *dataPath, report)
	if !report.Legal() {
		os.Exit(1)
	}
	return nil
}

// multiFlag collects repeated -c flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// cmdCarve splits a legal instance by subtree into n shard instances
// plus the default-shard remainder, writing one LDIF per shard and a
// shards.conf bsrouter can load. Roots are chosen by shard.AutoCut:
// depth-1 subtrees, largest first, each validated to stay legal when
// carved out with its spine ghosts, dealt to the smallest shard.
func cmdCarve(args []string) error {
	fs := flag.NewFlagSet("carve", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	instPath := fs.String("instance", "", "LDIF instance file")
	n := fs.Int("shards", 2, "number of carved shards (a default shard is always added)")
	portBase := fs.Int("port-base", 4001, "first shard port; shard i serves 127.0.0.1:<port-base+i>, the default shard the last port")
	outDir := fs.String("o", "shards", "output directory for per-shard LDIF files and shards.conf")
	fs.Parse(args)
	if *schemaPath == "" || *instPath == "" {
		return fmt.Errorf("carve: -schema and -instance are required")
	}
	s, _, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	d, err := loadInstance(*instPath, s.Registry)
	if err != nil {
		return err
	}
	if report := boundschema.NewChecker(s).Check(d); !report.Legal() {
		return fmt.Errorf("carve: instance is illegal; fix it first:\n%s", report)
	}
	roots, err := shard.AutoCut(s, d, *n)
	if err != nil {
		return err
	}
	var shards []*shard.Shard
	port := *portBase
	for i, rs := range roots {
		if len(rs) == 0 {
			fmt.Fprintf(os.Stderr, "carve: shard s%d gets no subtree (instance has too few cuttable depth-1 subtrees)\n", i)
			continue
		}
		shards = append(shards, &shard.Shard{Name: fmt.Sprintf("s%d", i), Addr: fmt.Sprintf("127.0.0.1:%d", port), Roots: rs})
		port++
	}
	def := &shard.Shard{Name: "rest", Addr: fmt.Sprintf("127.0.0.1:%d", port)}
	m, err := shard.NewMap(shards, def)
	if err != nil {
		return err
	}
	dirs, err := shard.Carve(d, m)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, sh := range m.All() {
		path := filepath.Join(*outDir, sh.Name+".ldif")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := boundschema.WriteLDIF(f, dirs[sh.Name]); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("shard %-6s %4d entries  %s\n", sh.Name, dirs[sh.Name].Len(), path)
	}
	confPath := filepath.Join(*outDir, "shards.conf")
	conf := strings.Join(m.Render(), "\n") + "\n"
	if err := os.WriteFile(confPath, []byte(conf), 0o644); err != nil {
		return err
	}
	fmt.Printf("shard map written to %s; start each shard with\n", confPath)
	fmt.Printf("  bsd -schema %s -instance %s/<name>.ldif -addr <addr from the map>\n", *schemaPath, *outDir)
	fmt.Printf("and the router with\n  bsrouter -map %s\n", confPath)
	return nil
}

func cmdMaterialize(args []string) error {
	fs := flag.NewFlagSet("materialize", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema definition file")
	fs.Parse(args)
	if *schemaPath == "" {
		return fmt.Errorf("materialize: -schema is required")
	}
	s, _, err := loadSchema(*schemaPath)
	if err != nil {
		return err
	}
	d, err := boundschema.Materialize(s)
	if err != nil {
		return err
	}
	return boundschema.WriteLDIF(os.Stdout, d)
}
