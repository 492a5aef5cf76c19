package shard

import (
	"fmt"
	"sort"
	"strings"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
)

// Carve splits one legal instance into per-shard instances following
// the map. Each carved shard's instance is the spine ghosts above its
// roots (content copies of the roots' proper ancestors, no other
// children) plus its owned subtrees, copied whole; the default shard's
// instance is the source minus every carved subtree — it keeps the
// *real* spine entries.
//
// The ghost construction is what keeps every shard instance legal on
// its own (server.New refuses illegal instances, so this is a boot
// requirement, not a nicety):
//
//   - upward axes (→pa, →an) are exact everywhere: every owned entry
//     has its full ancestor chain present locally;
//   - forbidden rels (⇥ch, ⇥de) are exact: any violating pair has the
//     lower entry owned by some shard, and that shard also holds the
//     upper entry (an ancestor — owned or ghost);
//   - downward required rels (→ch, →de) and required classes are
//     *conservative*: each shard must satisfy them from its own
//     entries, which is stricter than the global instance — all
//     shards locally legal ⇒ the global instance is legal. AutoCut
//     only picks cuts that stay legal under this stricter reading.
//
// The one check that does not decompose is cross-shard key
// uniqueness: keys stay shard-local, so two shards can each hold a
// key value the global instance would reject. See DESIGN.md — the
// router documents this as the sharded deployment's contract.
//
// Ghosts cannot drift afterwards: the protocol has no entry-modify
// command, and the router refuses DELETE/MOVE of spine DNs.
func Carve(src *dirtree.Directory, m *Map) (map[string]*dirtree.Directory, error) {
	out := make(map[string]*dirtree.Directory, len(m.Shards)+1)
	for _, sh := range m.Shards {
		dst := dirtree.New(src.Registry())
		// Ghost chain first, shallowest ancestor first, so parents exist
		// before children.
		var ghosts []string
		seen := map[string]bool{}
		for _, root := range sh.Roots {
			for _, anc := range ProperAncestors(root) {
				if !seen[anc] {
					seen[anc] = true
					ghosts = append(ghosts, anc)
				}
			}
		}
		sort.Slice(ghosts, func(i, j int) bool {
			return strings.Count(ghosts[i], ",") < strings.Count(ghosts[j], ",")
		})
		for _, dn := range ghosts {
			se := src.ByDN(dn)
			if se == nil {
				return nil, fmt.Errorf("carve: shard %s: spine entry %q not in the source instance", sh.Name, dn)
			}
			if err := copyGhost(dst, se); err != nil {
				return nil, fmt.Errorf("carve: shard %s: %v", sh.Name, err)
			}
		}
		for _, root := range sh.Roots {
			se := src.ByDN(root)
			if se == nil {
				return nil, fmt.Errorf("carve: shard %s: root %q not in the source instance", sh.Name, root)
			}
			var parent *dirtree.Entry
			if p := se.Parent(); p != nil {
				parent = dst.ByDN(p.DN())
			}
			if _, err := dst.GraftSubtree(parent, se); err != nil {
				return nil, fmt.Errorf("carve: shard %s: graft %q: %v", sh.Name, root, err)
			}
		}
		out[sh.Name] = dst
	}
	if m.Default != nil {
		dst := src.Clone()
		for root := range m.rootIn {
			e := dst.ByDN(root)
			if e == nil {
				return nil, fmt.Errorf("carve: default: root %q not in the source instance", root)
			}
			if _, err := dst.DeleteSubtree(e); err != nil {
				return nil, fmt.Errorf("carve: default: delete %q: %v", root, err)
			}
		}
		out[m.Default.Name] = dst
	}
	return out, nil
}

// copyGhost copies one entry (classes and attribute values, no
// children) into dst under its source parent's DN.
func copyGhost(dst *dirtree.Directory, se *dirtree.Entry) error {
	var parent *dirtree.Entry
	if p := se.Parent(); p != nil {
		parent = dst.ByDN(p.DN())
		if parent == nil {
			return fmt.Errorf("ghost %q: parent missing in shard copy", se.DN())
		}
	}
	var e *dirtree.Entry
	var err error
	if parent == nil {
		e, err = dst.AddRoot(se.RDN(), se.ClassSet().Names...)
	} else {
		e, err = dst.AddChild(parent, se.RDN(), se.ClassSet().Names...)
	}
	if err != nil {
		return err
	}
	for _, name := range se.AttrNames() {
		if name == dirtree.AttrObjectClass {
			continue
		}
		for _, v := range se.Attr(name) {
			e.AddValue(name, v)
		}
	}
	return nil
}

// AutoCut picks subtree roots for n carved shards out of a legal
// source instance: the depth-1 subtrees (children of the forest
// roots), largest first, each validated to stay legal when carved out
// with its spine ghosts — a subtree that cannot satisfy the schema on
// its own (a single person without its orgUnit sibling structure, say)
// stays with the default shard instead of being carved. Roots are
// dealt to the currently-smallest shard so the cut balances by entry
// count. The returned slice has exactly n root-sets; sets may be empty
// when the instance has fewer cuttable subtrees than shards.
func AutoCut(schema *core.Schema, src *dirtree.Directory, n int) ([][]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("autocut: need at least one shard, got %d", n)
	}
	checker := core.NewChecker(schema)
	type cand struct {
		dn   string
		size int
	}
	var cands []cand
	for _, root := range src.Roots() {
		for _, ch := range root.Children() {
			cands = append(cands, cand{ch.DN(), subtreeSize(ch)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return CompareDN(cands[i].dn, cands[j].dn) < 0
	})
	roots := make([][]string, n)
	sizes := make([]int, n)
	for _, c := range cands {
		// A cuttable subtree must be legal as a shard instance of its
		// own (with ghosts): carve it alone and run the full checker.
		probe, err := NewMap([]*Shard{{Name: "probe", Addr: "probe", Roots: []string{c.dn}}}, nil)
		if err != nil {
			return nil, fmt.Errorf("autocut: %v", err)
		}
		dirs, err := Carve(src, probe)
		if err != nil {
			return nil, fmt.Errorf("autocut: %v", err)
		}
		if !checker.Check(dirs["probe"]).Legal() {
			continue // not legal standalone; stays with the default shard
		}
		at := 0
		for i := range sizes {
			if sizes[i] < sizes[at] {
				at = i
			}
		}
		roots[at] = append(roots[at], c.dn)
		sizes[at] += c.size
	}
	// The default shard must stay legal too: carving a subtree out can
	// remove the last witness of a downward required rel. Give roots
	// back (smallest shard last root first) until it is.
	for {
		var shards []*Shard
		for i, rs := range roots {
			if len(rs) > 0 {
				shards = append(shards, &Shard{Name: fmt.Sprintf("s%d", i), Addr: "probe", Roots: rs})
			}
		}
		if len(shards) == 0 {
			return roots, nil
		}
		probe, err := NewMap(shards, &Shard{Name: "rest", Addr: "probe"})
		if err != nil {
			return nil, fmt.Errorf("autocut: %v", err)
		}
		dirs, err := Carve(src, probe)
		if err != nil {
			return nil, fmt.Errorf("autocut: %v", err)
		}
		if checker.Check(dirs["rest"]).Legal() {
			return roots, nil
		}
		at := 0
		for i := range sizes {
			if len(roots[i]) > 0 && (len(roots[at]) == 0 || sizes[i] < sizes[at]) {
				at = i
			}
		}
		last := roots[at][len(roots[at])-1]
		roots[at] = roots[at][:len(roots[at])-1]
		sizes[at] -= subtreeSize(src.ByDN(last))
	}
}

func subtreeSize(e *dirtree.Entry) int {
	n := 1
	for _, c := range e.Children() {
		n += subtreeSize(c)
	}
	return n
}
