// Package shard partitions one bounding-schema directory across shard
// processes by subtree — the deployment Theorem 4.1 licenses: update
// transactions normalize into independent subtree insertions and
// deletions (Δ-queries), so a cut that keeps whole subtrees together
// keeps almost all legality checking shard-local.
//
// The pieces:
//
//   - Map (this file): the static shard map — named shards owning
//     disjoint subtree roots, plus an optional default shard owning
//     everything else. The map also derives the *spine*: the proper
//     ancestors of every carved root, the only entries whose
//     descendant sets span shards.
//   - Carve / AutoCut (carve.go): split one legal instance into
//     per-shard instances, replicating the spine as ghost entries so
//     every shard instance is legal on its own.
//   - Router (router.go): a process speaking the server's line
//     protocol, routing DN-prefixed commands to the owning shard and
//     fanning reads out with merged, deterministically ordered
//     results.
//   - coordinator (coordinator.go): the thin cross-shard legality
//     layer — boundary counts over the spine via the COUNT command.
package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Shard is one member of the map: a name, the client-protocol address,
// and the subtree roots it owns. The default shard has no roots — it
// owns every DN no carved root covers, including the real spine
// entries.
type Shard struct {
	Name  string
	Addr  string
	Roots []string
}

// Map is the static shard map. Shards hold the carved shards in config
// order; Default (optional) owns the remainder of the forest.
type Map struct {
	Shards  []*Shard
	Default *Shard

	spine   []string        // proper ancestors of all roots, canonical order
	spineIn map[string]bool // membership index over spine
	rootIn  map[string]*Shard
}

// parseMap reads the shard map config: one directive per line,
//
//	shard <name> <addr> <root>[;<root>...]
//	default <name> <addr>
//
// '#' starts a comment. Roots are subtree DNs; they may contain spaces
// (DNs do), so the roots field is everything after the address, split
// on ';'. Carved roots must be disjoint: no root equal to or inside
// another.
func parseMap(r io.Reader) (*Map, error) {
	m := &Map{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		word, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch word {
		case "shard":
			name, rest2, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("shardmap line %d: shard needs <name> <addr> <roots>", lineNo)
			}
			addr, roots, ok := strings.Cut(strings.TrimSpace(rest2), " ")
			if !ok {
				return nil, fmt.Errorf("shardmap line %d: shard %s needs <addr> <roots>", lineNo, name)
			}
			sh := &Shard{Name: name, Addr: addr}
			for _, root := range strings.Split(roots, ";") {
				root = strings.TrimSpace(root)
				if root == "" {
					return nil, fmt.Errorf("shardmap line %d: shard %s has an empty root", lineNo, name)
				}
				sh.Roots = append(sh.Roots, root)
			}
			m.Shards = append(m.Shards, sh)
		case "default":
			name, addr, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("shardmap line %d: default needs <name> <addr>", lineNo)
			}
			if m.Default != nil {
				return nil, fmt.Errorf("shardmap line %d: duplicate default shard", lineNo)
			}
			m.Default = &Shard{Name: name, Addr: strings.TrimSpace(addr)}
		default:
			return nil, fmt.Errorf("shardmap line %d: unknown directive %q", lineNo, word)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadMap reads a shard map config file.
func LoadMap(path string) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseMap(f)
}

// NewMap builds a validated map programmatically (tests, embedded
// clusters). defaultShard may be nil.
func NewMap(shards []*Shard, defaultShard *Shard) (*Map, error) {
	m := &Map{Shards: shards, Default: defaultShard}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// init validates the map and derives the spine and ownership indexes.
func (m *Map) init() error {
	if len(m.Shards) == 0 && m.Default == nil {
		return fmt.Errorf("shardmap: no shards")
	}
	names := map[string]bool{}
	m.rootIn = map[string]*Shard{}
	for _, sh := range m.allShards() {
		if sh.Name == "" || strings.ContainsAny(sh.Name, " \t") {
			return fmt.Errorf("shardmap: bad shard name %q", sh.Name)
		}
		if names[sh.Name] {
			return fmt.Errorf("shardmap: duplicate shard name %q", sh.Name)
		}
		names[sh.Name] = true
		if sh.Addr == "" {
			return fmt.Errorf("shardmap: shard %s has no address", sh.Name)
		}
	}
	for _, sh := range m.Shards {
		if len(sh.Roots) == 0 {
			return fmt.Errorf("shardmap: shard %s has no roots (use a default shard for the remainder)", sh.Name)
		}
		for _, root := range sh.Roots {
			if other, dup := m.rootIn[root]; dup {
				return fmt.Errorf("shardmap: root %q owned by both %s and %s", root, other.Name, sh.Name)
			}
			m.rootIn[root] = sh
		}
	}
	// Disjointness: no carved root strictly inside another carved root —
	// nested cuts would make the inner subtree owned twice.
	for r1 := range m.rootIn {
		for r2 := range m.rootIn {
			if r1 != r2 && underDN(r1, r2) {
				return fmt.Errorf("shardmap: root %q is inside root %q", r1, r2)
			}
		}
	}
	// The spine: every proper ancestor of every carved root. These are
	// the only entries whose descendant sets span shards; Carve
	// replicates them as ghosts and the coordinator audits across them.
	m.spineIn = map[string]bool{}
	for root := range m.rootIn {
		for _, anc := range properAncestors(root) {
			if !m.spineIn[anc] {
				m.spineIn[anc] = true
				m.spine = append(m.spine, anc)
			}
		}
	}
	sortDNs(m.spine)
	return nil
}

// allShards returns every shard, carved first, default (if any) last.
func (m *Map) allShards() []*Shard {
	out := append([]*Shard(nil), m.Shards...)
	if m.Default != nil {
		out = append(out, m.Default)
	}
	return out
}

// All returns every shard, carved first, default last.
func (m *Map) All() []*Shard { return m.allShards() }

// Owner returns the shard owning dn: the carved shard whose root
// contains it, else the default shard, else nil (unroutable). Roots
// are disjoint, so at most one carved root matches.
func (m *Map) Owner(dn string) *Shard {
	for root, sh := range m.rootIn {
		if underDN(dn, root) {
			return sh
		}
	}
	return m.Default
}

// Spine returns the spine DNs in canonical order. Callers must not
// modify the returned slice.
func (m *Map) Spine() []string { return m.spine }

// isSpine reports whether dn is a spine entry — a proper ancestor of
// some carved root, replicated as a ghost on the shards below it.
func (m *Map) isSpine(dn string) bool { return m.spineIn[dn] }

// rootShard returns the carved shard for which dn is a root, or nil.
func (m *Map) rootShard(dn string) *Shard { return m.rootIn[dn] }

// Holders returns every shard holding a copy of the spine entry dn:
// the default shard (the real entry) plus each carved shard with a
// root below it (ghosts). For non-spine DNs it returns just the owner.
func (m *Map) Holders(dn string) []*Shard {
	if !m.spineIn[dn] {
		if sh := m.Owner(dn); sh != nil {
			return []*Shard{sh}
		}
		return nil
	}
	var out []*Shard
	for _, sh := range m.Shards {
		for _, root := range sh.Roots {
			if underDN(root, dn) && root != dn {
				out = append(out, sh)
				break
			}
		}
	}
	if m.Default != nil {
		out = append(out, m.Default)
	}
	return out
}

// Render prints the map in the config format SHARDMAP serves (and
// parseMap reads back), spine DNs appended as comments.
func (m *Map) Render() []string {
	var out []string
	for _, sh := range m.Shards {
		out = append(out, fmt.Sprintf("shard %s %s %s", sh.Name, sh.Addr, strings.Join(sh.Roots, ";")))
	}
	if m.Default != nil {
		out = append(out, fmt.Sprintf("default %s %s", m.Default.Name, m.Default.Addr))
	}
	for _, s := range m.spine {
		out = append(out, "# spine "+s)
	}
	return out
}

// underDN reports whether dn lies in the subtree rooted at anc
// (inclusive): dn equals anc or ends in ","+anc. DNs are compared as
// the repo renders them — comma-joined RDNs, leaf first.
func underDN(dn, anc string) bool {
	return dn == anc || strings.HasSuffix(dn, ","+anc)
}

// properAncestors returns dn's proper ancestor DNs, nearest first.
func properAncestors(dn string) []string {
	var out []string
	for {
		_, rest, ok := strings.Cut(dn, ",")
		if !ok {
			return out
		}
		out = append(out, rest)
		dn = rest
	}
}

// compareDN orders DNs hierarchically: by RDN path from the root down,
// ancestors before their descendants, so every subtree is one
// contiguous run — the deterministic merge order the router gives
// fanned-out SEARCH results regardless of per-shard insertion order.
func compareDN(a, b string) int {
	ap, bp := strings.Split(a, ","), strings.Split(b, ",")
	for i, j := len(ap)-1, len(bp)-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
		if c := strings.Compare(ap[i], bp[j]); c != 0 {
			return c
		}
	}
	return len(ap) - len(bp)
}

// sortDNs sorts DNs in the canonical hierarchical order.
func sortDNs(dns []string) {
	sort.Slice(dns, func(i, j int) bool { return compareDN(dns[i], dns[j]) < 0 })
}
