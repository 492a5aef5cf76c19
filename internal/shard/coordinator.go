package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"boundschema/internal/core"
	"boundschema/internal/proto"
	"boundschema/internal/schemadsl"
)

// coordinator is the thin cross-shard legality layer. Shard-local
// checks already imply global legality for every element except
// cross-shard key uniqueness (see Carve): upward axes and forbidden
// rels are exact because every entry's ancestor chain is present on
// its shard, and downward required rels are checked *more* strictly
// per shard than the global instance demands. What remains worth
// verifying is that the deployment actually upholds the ghost
// invariant — a mis-carved shard, a map edit behind the router's back.
// The coordinator audits exactly the spanning Δ-queries the paper's
// Theorem 4.1 localizes to the cut: for each spine entry, the
// downward required and forbidden relationships, evaluated as
// boundary counts (COUNT) over every shard below the cut, with the
// statically known ghost multiplicity subtracted.
type coordinator struct {
	rt *Router

	mu           sync.Mutex
	schema       *core.Schema
	spineClasses map[string][]string // spine DN -> object classes (ghosts never change)
}

func newCoordinator(rt *Router) *coordinator {
	return &coordinator{rt: rt}
}

// ensureSchema fetches and parses the schema from the anchor shard
// once; every shard serves the same schema.
func (co *coordinator) ensureSchema() (*core.Schema, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.schema != nil {
		return co.schema, nil
	}
	sh := co.rt.anchorShard()
	r, err := co.rt.do(sh, "SCHEMA")
	if err != nil {
		return nil, errors.New(shardDownMsg(sh, err))
	}
	if !r.OK() {
		return nil, fmt.Errorf("shard %s: SCHEMA: %s", sh.Name, r.Err)
	}
	schema, _, err := schemadsl.Parse(strings.Join(r.Lines, "\n") + "\n")
	if err != nil {
		return nil, fmt.Errorf("shard %s: parse schema: %v", sh.Name, err)
	}
	co.schema = schema
	return schema, nil
}

// ensureSpine fetches each spine entry's object classes once, from a
// holder. Ghosts are immutable by construction (no modify command;
// spine DELETE/MOVE refused), so the cache never goes stale.
func (co *coordinator) ensureSpine() (map[string][]string, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.spineClasses != nil {
		return co.spineClasses, nil
	}
	out := make(map[string][]string, len(co.rt.m.Spine()))
	for _, dn := range co.rt.m.Spine() {
		hs := co.rt.m.Holders(dn)
		if len(hs) == 0 {
			return nil, fmt.Errorf("spine entry %q has no holding shard", dn)
		}
		sh := hs[len(hs)-1] // the default shard holds the real entry, when present
		r, err := co.rt.do(sh, "GET "+dn)
		if err != nil {
			return nil, errors.New(shardDownMsg(sh, err))
		}
		if !r.OK() {
			return nil, fmt.Errorf("shard %s: spine entry %q: %s", sh.Name, dn, r.Err)
		}
		var classes []string
		for _, l := range r.Lines {
			if v, ok := strings.CutPrefix(l, "objectClass: "); ok {
				classes = append(classes, v)
			}
		}
		out[dn] = classes
	}
	co.spineClasses = out
	return out, nil
}

// correction returns the ghost multiplicity to subtract from a summed
// boundary count: each spine entry in scope exists once in the global
// instance but len(Holders)-1 extra times across the fanned-out
// shards. Derived statically from the map plus the cached spine
// classes — no per-query shard round-trips.
func (co *coordinator) correction(a proto.CountArgs) (int, error) {
	spineClasses, err := co.ensureSpine()
	if err != nil {
		return 0, err
	}
	corr := 0
	for _, s := range co.rt.m.Spine() {
		switch {
		case !a.HasBase:
			// whole instance: every spine entry is in scope
		case a.Child:
			if parent := parentDN(s); parent != a.Base {
				continue
			}
		default:
			if s == a.Base || !underDN(s, a.Base) {
				continue
			}
		}
		if !hasClass(spineClasses[s], a.Class) {
			continue
		}
		if extra := len(co.rt.m.Holders(s)) - 1; extra > 0 {
			corr += extra
		}
	}
	return corr, nil
}

// audit evaluates the spanning legality elements across the cut and
// returns violation descriptions (empty = clean): per spine entry the
// downward required rels (is there a witness below the boundary,
// summed over shards?) and downward forbidden rels (is there a
// violating entry below?), plus the instance-wide required classes.
func (co *coordinator) audit() ([]string, error) {
	schema, err := co.ensureSchema()
	if err != nil {
		return nil, err
	}
	spineClasses, err := co.ensureSpine()
	if err != nil {
		return nil, err
	}
	var viols []string
	for _, dn := range co.rt.m.Spine() {
		classes := spineClasses[dn]
		for _, rel := range schema.Structure.RequiredRels() {
			if !downward(rel.Axis) || !hasClass(classes, rel.Source) {
				continue
			}
			n, err := co.rt.countAcrossShards(proto.CountArgs{Class: rel.Target, Child: rel.Axis == core.AxisChild, Base: dn, HasBase: true})
			if err != nil {
				return nil, err
			}
			if n == 0 {
				viols = append(viols, fmt.Sprintf("entry %s: required %s has no witness across shards", dn, rel.ElementString()))
			}
		}
		for _, rel := range schema.Structure.ForbiddenRels() {
			if !hasClass(classes, rel.Upper) {
				continue
			}
			n, err := co.rt.countAcrossShards(proto.CountArgs{Class: rel.Lower, Child: rel.Axis == core.AxisChild, Base: dn, HasBase: true})
			if err != nil {
				return nil, err
			}
			if n > 0 {
				viols = append(viols, fmt.Sprintf("entry %s: forbidden %s has %d violating entries across shards", dn, rel.ElementString(), n))
			}
		}
	}
	for _, c := range schema.Structure.RequiredClasses() {
		n, err := co.rt.countAcrossShards(proto.CountArgs{Class: c})
		if err != nil {
			return nil, err
		}
		if n == 0 {
			viols = append(viols, fmt.Sprintf("required class %s⇓ has no entries across shards", c))
		}
	}
	return viols, nil
}

func downward(a core.Axis) bool { return a == core.AxisChild || a == core.AxisDesc }

func hasClass(classes []string, c string) bool {
	for _, have := range classes {
		if have == c {
			return true
		}
	}
	return false
}

func parentDN(dn string) string {
	_, rest, _ := strings.Cut(dn, ",")
	return rest
}
