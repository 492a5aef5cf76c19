// Bsgen generates synthetic workloads for the bounding-schema tool chain:
// the paper's white-pages schema and instance, scalable white-pages-shaped
// corpora, LDIF update streams, and random schemas for consistency
// experiments.
//
// Usage:
//
//	bsgen schema                 > whitepages.bs
//	bsgen schema -scenario netpolicy > netpolicy.bs
//	bsgen figure1                > figure1.ldif
//	bsgen corpus  -n 10000       > corpus.ldif
//	bsgen corpus  -n 10000 -scenario semistructured > corpus.ldif
//	bsgen updates -n 50 -corpus corpus.ldif > changes.ldif
//	bsgen randschema -classes 20 -required 10 -forbidden 5 > rand.bs
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"boundschema"
	"boundschema/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "schema":
		err = cmdSchema(os.Args[2:])
	case "figure1":
		s := workload.WhitePagesSchema()
		err = boundschema.WriteLDIF(os.Stdout, workload.WhitePagesInstance(s))
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "updates":
		err = cmdUpdates(os.Args[2:])
	case "randschema":
		err = cmdRandSchema(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "bsgen: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsgen: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bsgen <command> [flags]

commands:
  schema      print a scenario's bounding-schema (-scenario whitepages|netpolicy|semistructured)
  figure1     print the Figure 1 instance as LDIF
  corpus      generate a legal corpus for a scenario (-scenario, -n, -seed)
  updates     generate an LDIF change stream for a corpus
  randschema  generate a random bounding-schema`)
}

// scenarioFuncs resolves a -scenario name to its schema and corpus
// generators (the same generators internal/loadgen's in-process
// clusters boot from, so a bsd seeded here serves the same instance
// for a given -n and -seed).
func scenarioFuncs(name string) (func() *boundschema.Schema, func(*boundschema.Schema, *rand.Rand, int) *boundschema.Directory, error) {
	switch name {
	case "whitepages":
		return workload.WhitePagesSchema, workload.Corpus, nil
	case "netpolicy":
		return workload.NetPolicySchema, workload.NetPolicyCorpus, nil
	case "semistructured":
		return workload.SemiStructSchema, workload.SemiStructCorpus, nil
	}
	return nil, nil, fmt.Errorf("unknown scenario %q (whitepages, netpolicy, semistructured)", name)
}

func cmdSchema(args []string) error {
	fs := flag.NewFlagSet("schema", flag.ExitOnError)
	scenario := fs.String("scenario", "whitepages", "whitepages, netpolicy, or semistructured")
	fs.Parse(args)
	newSchema, _, err := scenarioFuncs(*scenario)
	if err != nil {
		return err
	}
	fmt.Print(boundschema.FormatSchema(newSchema(), *scenario))
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	n := fs.Int("n", 1000, "approximate number of entries")
	seed := fs.Int64("seed", 1, "random seed")
	scenario := fs.String("scenario", "whitepages", "whitepages, netpolicy, or semistructured")
	fs.Parse(args)
	newSchema, newCorpus, err := scenarioFuncs(*scenario)
	if err != nil {
		return err
	}
	s := newSchema()
	d := newCorpus(s, rand.New(rand.NewSource(*seed)), *n)
	return boundschema.WriteLDIF(os.Stdout, d)
}

func cmdUpdates(args []string) error {
	fs := flag.NewFlagSet("updates", flag.ExitOnError)
	n := fs.Int("n", 20, "number of change records")
	seed := fs.Int64("seed", 1, "random seed")
	corpusPath := fs.String("corpus", "", "corpus the updates target (for delete DNs)")
	fs.Parse(args)
	s := workload.WhitePagesSchema()

	var d *boundschema.Directory
	if *corpusPath != "" {
		f, err := os.Open(*corpusPath)
		if err != nil {
			return err
		}
		defer f.Close()
		d, err = boundschema.ReadLDIF(f, s.Registry)
		if err != nil {
			return err
		}
	} else {
		d = workload.WhitePagesInstance(s)
	}
	rng := rand.New(rand.NewSource(*seed))
	groups := d.ClassEntries("orgGroup")
	persons := d.ClassEntries("person")
	for i := 0; i < *n; i++ {
		if rng.Intn(3) != 0 || len(persons) == 0 {
			parent := groups[rng.Intn(len(groups))]
			unit := fmt.Sprintf("ou=gen%d,%s", i, parent.DN())
			fmt.Printf("dn: %s\nchangetype: add\nobjectClass: orgUnit\nobjectClass: orgGroup\nobjectClass: top\n\n", unit)
			fmt.Printf("dn: uid=genp%d,%s\nchangetype: add\nobjectClass: person\nobjectClass: top\nname: generated %d\n\n", i, unit, i)
		} else {
			k := rng.Intn(len(persons))
			victim := persons[k]
			if victim.IsLeaf() {
				fmt.Printf("dn: %s\nchangetype: delete\n\n", victim.DN())
				persons = append(persons[:k], persons[k+1:]...)
			}
		}
	}
	return nil
}

func cmdRandSchema(args []string) error {
	fs := flag.NewFlagSet("randschema", flag.ExitOnError)
	classes := fs.Int("classes", 10, "number of core classes")
	required := fs.Int("required", 6, "number of required relationships")
	forbidden := fs.Int("forbidden", 3, "number of forbidden relationships")
	reqClasses := fs.Int("reqclasses", 2, "number of required classes")
	seed := fs.Int64("seed", 1, "random seed")
	deep := fs.Bool("deep", true, "bias toward deep hierarchies")
	fs.Parse(args)
	s := workload.RandomSchema(rand.New(rand.NewSource(*seed)), workload.SchemaConfig{
		Classes:         *classes,
		Required:        *required,
		Forbidden:       *forbidden,
		RequiredClasses: *reqClasses,
		Deep:            *deep,
	})
	fmt.Print(boundschema.FormatSchema(s, fmt.Sprintf("rand%d", *seed)))
	return nil
}
