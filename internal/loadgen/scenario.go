package loadgen

import (
	"fmt"
	"math/rand"
	"strings"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/workload"
)

// Scenario binds a bounding-schema, its corpus generator, and a
// per-worker source of schema-respecting wire operations. The three
// scenarios span structurally distinct schemas (the "Simple Schemas for
// Unordered XML" motivation: legality cost depends on schema shape, not
// just instance size): whitepages is requirement-heavy, netpolicy adds
// an instance-wide key and leaf constraints, semistructured has deep
// unbounded-depth requirements and a forbidden nesting.
type Scenario struct {
	Name      string
	NewSchema func() *core.Schema
	NewCorpus func(s *core.Schema, rng *rand.Rand, n int) *dirtree.Directory
	newSource func(p *Pools, worker int, rng *rand.Rand) opSource
}

// scenarios returns the three example scenarios.
func scenarios() []*Scenario {
	return []*Scenario{
		{Name: "whitepages", NewSchema: workload.WhitePagesSchema, NewCorpus: workload.Corpus,
			newSource: func(p *Pools, w int, rng *rand.Rand) opSource { return &wpSource{p: p, w: w, rng: rng} }},
		{Name: "netpolicy", NewSchema: workload.NetPolicySchema, NewCorpus: workload.NetPolicyCorpus,
			newSource: func(p *Pools, w int, rng *rand.Rand) opSource { return &npSource{p: p, w: w, rng: rng} }},
		{Name: "semistructured", NewSchema: workload.SemiStructSchema, NewCorpus: workload.SemiStructCorpus,
			newSource: func(p *Pools, w int, rng *rand.Rand) opSource { return &ssSource{p: p, w: w, rng: rng} }},
	}
}

// ScenarioByName resolves a scenario; ok is false for unknown names.
func ScenarioByName(name string) (*Scenario, bool) {
	for _, sc := range scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return nil, false
}

// Pools are DN samples extracted from the seed corpus before the server
// starts mutating it. Workers only delete and move entries they created
// themselves, so every pooled DN stays valid for the whole run — the
// corpus-seeded entries are what keeps existential bounds (orgGroup →de
// person, subnet →de host) satisfied while workers churn around them.
type Pools struct {
	Parents []string // create/move targets (orgGroups, subnets, corporations)
	Reads   []string // stable DNs for point reads
	Bases   []string // SEARCH base DNs, spaced ones included
}

const poolCap = 4096 // corpus samples per pool; workers add their own entries on top

// extractPools samples the scenario's pools from a seed corpus.
func (sc *Scenario) extractPools(d *dirtree.Directory) *Pools {
	var parentClass, readClass string
	switch sc.Name {
	case "whitepages":
		parentClass, readClass = "orgGroup", "person"
	case "netpolicy":
		parentClass, readClass = "subnet", "host"
	case "semistructured":
		parentClass, readClass = "corporation", "person"
	default:
		panic("loadgen: unknown scenario " + sc.Name)
	}
	p := &Pools{}
	for _, e := range d.ClassEntries(parentClass) {
		if len(p.Parents) >= poolCap {
			break
		}
		p.Parents = append(p.Parents, e.DN())
	}
	for _, e := range d.ClassEntries(readClass) {
		if len(p.Reads) >= poolCap {
			break
		}
		p.Reads = append(p.Reads, e.DN())
	}
	// Bases prefer spaced DNs so subtree searches over them are always
	// part of the mix (the spaced-DN protocol path under load).
	for _, dn := range p.Parents {
		if strings.Contains(dn, " ") {
			p.Bases = append(p.Bases, dn)
		}
	}
	if spaced := len(p.Bases); spaced == 0 {
		p.Bases = p.Parents
	} else {
		// Half spaced, half arbitrary.
		for i := 0; i < len(p.Parents) && len(p.Bases) < 2*spaced; i++ {
			p.Bases = append(p.Bases, p.Parents[i])
		}
	}
	if len(p.Parents) == 0 || len(p.Reads) == 0 {
		panic(fmt.Sprintf("loadgen: scenario %s corpus too small for pools", sc.Name))
	}
	return p
}

// op is one executable operation: either a single command line (reads,
// queries) or a transaction body (creates, updates, deletes). Applied,
// when non-nil, is called with the commit outcome so the source can
// track which of its entries actually exist.
type op struct {
	Cmd     string
	Tx      []string
	Applied func(ok bool)
}

// opSource generates operations for one worker. Op returns false when
// the kind is not currently possible (update/delete with nothing owned
// yet); callers substitute a create.
type opSource interface {
	Op(kind opKind) (op, bool)
}

// pick returns a uniformly random element.
func pick(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }

// moveOp builds the shared restructure op: move owned[i] under a fresh
// parent from the pool, updating the owned DN on commit. Returns false
// when nothing is owned or the chosen entry already sits there.
func moveOp(owned []string, i int, dest string) (op, bool) {
	dn := owned[i]
	if strings.HasSuffix(dn, ","+dest) {
		return op{}, false
	}
	rdn, _, _ := strings.Cut(dn, ",")
	newDN := rdn + "," + dest
	return op{
		Tx: []string{fmt.Sprintf("MOVE %s -> %s", dn, dest)},
		Applied: func(ok bool) {
			if ok {
				owned[i] = newDN
			}
		},
	}, true
}

// wpSource generates whitepages ops: person inserts under corpus
// orgGroups, moves between groups, deletes of own persons, and scoped
// name/mail searches. Persons are leaves (person ⊀ch ⊤), and every
// corpus group keeps its seeded person, so all generated batches are
// legal by construction — ILLEGAL from the server is a harness finding.
type wpSource struct {
	p     *Pools
	w     int
	rng   *rand.Rand
	seq   int
	owned []string
}

func (s *wpSource) Op(kind opKind) (op, bool) {
	switch kind {
	case opCreate:
		parent := pick(s.rng, s.p.Parents)
		dn := fmt.Sprintf("uid=w%dp%d,%s", s.w, s.seq, parent)
		s.seq++
		lines := []string{"ADD " + dn, "objectClass: person", "objectClass: top"}
		if s.rng.Intn(2) == 0 {
			lines = append(lines, "objectClass: researcher")
		} else {
			lines = append(lines, "objectClass: staffMember")
		}
		lines = append(lines, fmt.Sprintf("name: load person %d", s.seq))
		if s.rng.Intn(3) == 0 {
			lines = append(lines, "objectClass: online", fmt.Sprintf("mail: w%dp%d@example.org", s.w, s.seq))
		}
		return op{Tx: lines, Applied: func(ok bool) {
			if ok {
				s.owned = append(s.owned, dn)
			}
		}}, true
	case opRead:
		return op{Cmd: "GET " + s.readDN()}, true
	case opUpdate:
		if len(s.owned) == 0 {
			return op{}, false
		}
		return moveOp(s.owned, s.rng.Intn(len(s.owned)), pick(s.rng, s.p.Parents))
	case opDelete:
		if len(s.owned) == 0 {
			return op{}, false
		}
		i := s.rng.Intn(len(s.owned))
		dn := s.owned[i]
		return op{Tx: []string{"DELETE " + dn}, Applied: func(ok bool) {
			if ok {
				s.owned[i] = s.owned[len(s.owned)-1]
				s.owned = s.owned[:len(s.owned)-1]
			}
		}}, true
	case opQuery:
		switch s.rng.Intn(4) {
		case 0:
			return op{Cmd: "SEARCH (name=person*) base=" + pick(s.rng, s.p.Bases)}, true
		case 1:
			return op{Cmd: "SEARCH (mail=*) base=" + pick(s.rng, s.p.Bases)}, true
		case 2:
			// Truncated scan: base DNs may contain spaces, so this also
			// exercises the trailing-token limit parse.
			return op{Cmd: fmt.Sprintf("SEARCH (name=person*) base=%s limit=%d",
				pick(s.rng, s.p.Bases), 1+s.rng.Intn(20))}, true
		default:
			return op{Cmd: fmt.Sprintf("SEARCH (objectClass=orgUnit) base=%s", pick(s.rng, s.p.Bases))}, true
		}
	}
	return op{}, false
}

func (s *wpSource) readDN() string {
	if len(s.owned) > 0 && s.rng.Intn(2) == 0 {
		return pick(s.rng, s.owned)
	}
	return pick(s.rng, s.p.Reads)
}

// npSource generates netpolicy ops: host inserts with per-worker IP
// namespaces (10.<w+1>.x.y — the corpus uses 10.0.x.y), so the
// instance-wide ipAddress key never collides across workers; moves
// between subnets (each keeps its corpus gateway, so subnet →de host
// holds); and range scans over spaced subnet bases.
type npSource struct {
	p     *Pools
	w     int
	rng   *rand.Rand
	seq   int
	owned []string
}

func (s *npSource) Op(kind opKind) (op, bool) {
	switch kind {
	case opCreate:
		parent := pick(s.rng, s.p.Parents)
		dn := fmt.Sprintf("cn=w%dh%d,%s", s.w, s.seq, parent)
		// First octet 1..249 per worker id: 10.0.x.y belongs to the corpus
		// and 10.250.x.y to hand-written tests, so namespaced worker ids
		// below 249 can never re-issue a live ipAddress key value.
		ip := fmt.Sprintf("10.%d.%d.%d", 1+s.w%249, (s.seq/250)%250, s.seq%250)
		s.seq++
		lines := []string{"ADD " + dn, "objectClass: host", "objectClass: netElement", "objectClass: top",
			"ipAddress: " + ip}
		if s.rng.Intn(3) == 0 {
			lines = append(lines, "objectClass: packetRouter", fmt.Sprintf("bandwidth: %d", 1000*(1+s.rng.Intn(10))))
		}
		return op{Tx: lines, Applied: func(ok bool) {
			if ok {
				s.owned = append(s.owned, dn)
			}
		}}, true
	case opRead:
		if len(s.owned) > 0 && s.rng.Intn(2) == 0 {
			return op{Cmd: "GET " + pick(s.rng, s.owned)}, true
		}
		return op{Cmd: "GET " + pick(s.rng, s.p.Reads)}, true
	case opUpdate:
		if len(s.owned) == 0 {
			return op{}, false
		}
		return moveOp(s.owned, s.rng.Intn(len(s.owned)), pick(s.rng, s.p.Parents))
	case opDelete:
		if len(s.owned) == 0 {
			return op{}, false
		}
		i := s.rng.Intn(len(s.owned))
		dn := s.owned[i]
		return op{Tx: []string{"DELETE " + dn}, Applied: func(ok bool) {
			if ok {
				s.owned[i] = s.owned[len(s.owned)-1]
				s.owned = s.owned[:len(s.owned)-1]
			}
		}}, true
	case opQuery:
		switch s.rng.Intn(4) {
		case 0:
			return op{Cmd: "SEARCH (ipAddress=10.*) base=" + pick(s.rng, s.p.Bases)}, true
		case 1:
			return op{Cmd: "SEARCH (bandwidth>=5000) base=" + pick(s.rng, s.p.Bases)}, true
		case 2:
			// Typed range probe with a cap — the index-range + limit path.
			return op{Cmd: fmt.Sprintf("SEARCH (bandwidth>=5000) limit=%d", 1+s.rng.Intn(10))}, true
		default:
			return op{Cmd: "SEARCH (objectClass=policy)"}, true
		}
	}
	return op{}, false
}

// ssOwned is one worker-created person subtree: its root DN and whether
// the name leaf hangs off an intermediate contact node. The shape is
// what DELETE needs — LDAP deletes must list the whole subtree (the net
// deleted set is closed under descendants, Section 4.1), so the source
// has to remember which descendants it created.
type ssOwned struct {
	dn   string
	deep bool
}

// ssSource generates semistructured ops: whole person subtrees (person
// → name, or person → contact → name) inserted under corporations,
// moved between corporations (the required name descendant travels with
// the subtree), and deleted as closed subtrees — the Theorem 4.1
// normalization shapes. Label searches run over spaced corporation
// bases.
type ssSource struct {
	p     *Pools
	w     int
	rng   *rand.Rand
	seq   int
	owned []ssOwned
}

func (s *ssSource) Op(kind opKind) (op, bool) {
	switch kind {
	case opCreate:
		parent := pick(s.rng, s.p.Parents)
		dn := fmt.Sprintf("uid=w%dp%d,%s", s.w, s.seq, parent)
		label := fmt.Sprintf("label: load person %d.%d", s.w, s.seq)
		deep := s.rng.Intn(2) == 0
		lines := []string{"ADD " + dn, "objectClass: person", "objectClass: top"}
		if deep {
			lines = append(lines,
				fmt.Sprintf("ADD cn=contact,%s", dn), "objectClass: contact", "objectClass: top",
				fmt.Sprintf("ADD cn=name,cn=contact,%s", dn), "objectClass: name", "objectClass: top", label)
		} else {
			lines = append(lines,
				fmt.Sprintf("ADD cn=name,%s", dn), "objectClass: name", "objectClass: top", label)
		}
		s.seq++
		return op{Tx: lines, Applied: func(ok bool) {
			if ok {
				s.owned = append(s.owned, ssOwned{dn: dn, deep: deep})
			}
		}}, true
	case opRead:
		if len(s.owned) > 0 && s.rng.Intn(2) == 0 {
			return op{Cmd: "GET " + s.owned[s.rng.Intn(len(s.owned))].dn}, true
		}
		return op{Cmd: "GET " + pick(s.rng, s.p.Reads)}, true
	case opUpdate:
		if len(s.owned) == 0 {
			return op{}, false
		}
		i := s.rng.Intn(len(s.owned))
		dn, dest := s.owned[i].dn, pick(s.rng, s.p.Parents)
		if strings.HasSuffix(dn, ","+dest) {
			return op{}, false
		}
		rdn, _, _ := strings.Cut(dn, ",")
		return op{
			Tx: []string{fmt.Sprintf("MOVE %s -> %s", dn, dest)},
			Applied: func(ok bool) {
				if ok {
					s.owned[i].dn = rdn + "," + dest
				}
			},
		}, true
	case opDelete:
		if len(s.owned) == 0 {
			return op{}, false
		}
		i := s.rng.Intn(len(s.owned))
		o := s.owned[i]
		// Leaves first, closed under descendants.
		var lines []string
		if o.deep {
			lines = []string{
				fmt.Sprintf("DELETE cn=name,cn=contact,%s", o.dn),
				fmt.Sprintf("DELETE cn=contact,%s", o.dn),
				"DELETE " + o.dn,
			}
		} else {
			lines = []string{fmt.Sprintf("DELETE cn=name,%s", o.dn), "DELETE " + o.dn}
		}
		return op{Tx: lines, Applied: func(ok bool) {
			if ok {
				s.owned[i] = s.owned[len(s.owned)-1]
				s.owned = s.owned[:len(s.owned)-1]
			}
		}}, true
	case opQuery:
		switch s.rng.Intn(3) {
		case 0:
			return op{Cmd: "SEARCH (label=*) base=" + pick(s.rng, s.p.Bases)}, true
		case 1:
			// Presence probe with a cap — index-present + limit.
			return op{Cmd: fmt.Sprintf("SEARCH (label=*) limit=%d", 1+s.rng.Intn(5))}, true
		default:
			return op{Cmd: "SEARCH (objectClass=contact) base=" + pick(s.rng, s.p.Bases)}, true
		}
	}
	return op{}, false
}
