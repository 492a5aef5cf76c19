package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/workload"
)

// opKind names what a request exercises; latency is reported per kind.
type opKind uint8

const (
	kGet opKind = iota
	kSearch
	kCommit
	numKinds
)

var kindNames = [numKinds]string{"get", "search", "commit"}

// req is one pre-computed request with the reply the generator expects.
// Every reply is checked against it, so a request stream is also its own
// oracle: the server gets only Cmd or Tx.
type req struct {
	Kind opKind
	Cmd  string   // GET / SEARCH line; empty for a transaction
	Tx   []string // BEGIN…COMMIT body lines
	// Term is the terminator the reply must carry: OK, ILLEGAL (the
	// illegal-by-construction transactions) or ERR (GET of a deleted DN).
	Term string
	// GET: a payload line the reply must contain. SEARCH: the suffix
	// every returned DN must carry (its base).
	Line string
	N    int // SEARCH: exact number of DNs expected
}

// base is a SEARCH base with the result sizes of the four shapes,
// counted by a plain tree walk — not by the planner or the value index
// the server answers from.
type base struct {
	dn                     string
	persons, mailed, units int
}

// pools are the DN samples a request stream draws from. Search bases
// and write parents are disjoint subtrees, so SEARCH results are exact
// even while the other connection commits.
type pools struct {
	entries int      // corpus size
	persons []string // every corpus person: GET keys
	bases   []base
	parents []string // orgGroups outside every search base
}

const (
	// A base's subtree holds between these many entries. The corpus is a
	// random recursive tree, whose subtree sizes are heavy-tailed; without
	// the band one seed's SEARCH tail is another seed's median.
	baseMinEntries = 16
	baseMaxEntries = 512
	maxBases       = 512
	maxParents     = 4096
)

// newCorpus builds the seed's whitepages corpus of about n entries.
func newCorpus(seed int64, n int) (*core.Schema, *dirtree.Directory) {
	s := workload.WhitePagesSchema()
	return s, workload.Corpus(s, rand.New(rand.NewSource(seed)), n)
}

// census counts what the four SEARCH shapes match under e, bottom-up,
// and reports the counts and the subtree size of every orgGroup on the
// way. The returned base has no dn.
func census(e *dirtree.Entry, visit func(g *dirtree.Entry, b base, size int)) (base, int) {
	var b base
	n := 1
	if e.HasClass("person") {
		b.persons++
	}
	if e.HasAttr("mail") {
		b.mailed++
	}
	if e.HasClass("orgUnit") {
		b.units++
	}
	for _, c := range e.Children() {
		cb, cn := census(c, visit)
		b.persons += cb.persons
		b.mailed += cb.mailed
		b.units += cb.units
		n += cn
	}
	if visit != nil && e.HasClass("orgGroup") {
		visit(e, b, n)
	}
	return b, n
}

// extractPools samples the pools from the corpus.
func extractPools(d *dirtree.Directory, rng *rand.Rand) *pools {
	p := &pools{entries: d.Len()}
	for _, e := range d.ClassEntries("person") {
		p.persons = append(p.persons, e.DN())
	}
	counts := make(map[*dirtree.Entry]base)
	size := make(map[*dirtree.Entry]int)
	var groups []*dirtree.Entry
	for _, r := range d.Roots() {
		census(r, func(g *dirtree.Entry, b base, n int) {
			b.dn = g.DN()
			counts[g], size[g] = b, n
			groups = append(groups, g)
		})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].ID() < groups[j].ID() })
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })

	inRegion := make(map[*dirtree.Entry]bool)
	var mark func(e *dirtree.Entry)
	mark = func(e *dirtree.Entry) {
		inRegion[e] = true
		for _, c := range e.Children() {
			mark(c)
		}
	}
	for _, e := range groups {
		if len(p.bases) == maxBases {
			break
		}
		if n := size[e]; n >= baseMinEntries && n <= baseMaxEntries {
			p.bases = append(p.bases, counts[e])
			mark(e)
		}
	}
	for _, e := range groups {
		if len(p.parents) == maxParents {
			break
		}
		if !inRegion[e] {
			p.parents = append(p.parents, e.DN())
		}
	}
	if len(p.bases) == 0 || len(p.parents) < 2 {
		panic(fmt.Sprintf("bench: corpus of %d entries too small for pools", p.entries))
	}
	return p
}

// mix is a traffic mix in parts per thousand. illegal transactions put a
// child under a person, which `forbid person child top` rejects.
type mix struct{ add, addUnit, move, del, illegal, get, search int }

var (
	mixRead = mix{get: 800, search: 200}
	// 45% ADD person, 5% ADD orgUnit+person, 25% MOVE, 25% DELETE, with 2%
	// of all replaced by an illegal transaction.
	mixWrite = mix{add: 440, addUnit: 50, move: 245, del: 245, illegal: 20}
	// c10/u5/d5/r60/q20 in loadgen's vocabulary, the commits as in mixWrite.
	mixMixed = mix{add: 88, addUnit: 10, move: 49, del: 49, illegal: 4, get: 600, search: 200}
)

// deck lays the mix out as the shortest sequence of generator methods
// with exactly its proportions. Streams deal from shuffled decks, not from
// independent draws, so two seeds send the same number of each operation
// and differ only in order and keys.
func (m mix) deck() []func(*connGen) req {
	parts := []struct {
		n  int
		op func(*connGen) req
	}{
		{m.add, (*connGen).add}, {m.addUnit, (*connGen).addUnit}, {m.move, (*connGen).move},
		{m.del, (*connGen).delete}, {m.illegal, (*connGen).illegal}, {m.get, (*connGen).get}, {m.search, (*connGen).search},
	}
	div := 0
	for _, p := range parts {
		div = gcd(div, p.n)
	}
	var d []func(*connGen) req
	for _, p := range parts {
		for i := 0; i < p.n/div; i++ {
			d = append(d, p.op)
		}
	}
	return d
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// connGen generates one connection's requests. It owns a DN namespace
// (uid=w<conn>…), moves and deletes only persons it added itself, and
// leaves every orgGroup its corpus person, so each transaction's verdict
// is known when it is generated.
type connGen struct {
	conn     int
	rng      *rand.Rand
	p        *pools
	seq      int
	searches int
	owned    []string // live persons this connection may move or delete
	dead     []string // deleted DNs, which must answer "no entry" from then on
	// ledger maps every DN this connection ever wrote to whether it
	// exists after the stream has been applied.
	ledger map[string]bool
}

func newConnGen(seed int64, conn int, p *pools) *connGen {
	return &connGen{conn: conn, rng: rand.New(rand.NewSource(seed*1000 + int64(conn) + 1)), p: p,
		ledger: make(map[string]bool)}
}

func (g *connGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

// stream deals n requests from shuffled decks of m.
func (g *connGen) stream(m mix, n int) []req {
	if n == 0 {
		return nil // wp_mixed has no probe, so no mix to deal from
	}
	out := make([]req, 0, n)
	deck := m.deck()
	for len(out) < n {
		g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, op := range deck[:min(len(deck), n-len(out))] {
			out = append(out, op(g))
		}
	}
	return out
}

func (g *connGen) get() req {
	switch r := g.rng.Intn(100); {
	case r < 2 && len(g.dead) > 0:
		return req{Kind: kGet, Cmd: "GET " + g.pick(g.dead), Term: "ERR"}
	case r < 20 && len(g.owned) > 0:
		dn := g.pick(g.owned)
		uid := dn[len("uid="):strings.IndexByte(dn, ',')]
		return req{Kind: kGet, Cmd: "GET " + dn, Term: "OK", Line: "name: load person " + uid}
	}
	dn := g.pick(g.p.persons)
	id := dn[len("uid=p"):strings.IndexByte(dn, ',')]
	return req{Kind: kGet, Cmd: "GET " + dn, Term: "OK", Line: "name: person " + id}
}

// search takes wpSource's four SEARCH shapes in turn, over a random base.
func (g *connGen) search() req {
	g.searches++
	return g.searchShape(g.searches%4, g.p.bases[g.rng.Intn(len(g.p.bases))])
}

func (g *connGen) searchShape(shape int, b base) req {
	q := req{Kind: kSearch, Term: "OK", Line: b.dn}
	switch shape {
	case 0:
		q.Cmd, q.N = "SEARCH (name=person*) base="+b.dn, b.persons
	case 1:
		q.Cmd, q.N = "SEARCH (mail=*) base="+b.dn, b.mailed
	case 2:
		limit := 1 + g.rng.Intn(20)
		q.Cmd, q.N = fmt.Sprintf("SEARCH (name=person*) base=%s limit=%d", b.dn, limit), min(limit, b.persons)
	default:
		q.Cmd, q.N = "SEARCH (objectClass=orgUnit) base="+b.dn, b.units
	}
	return q
}

// personLines renders the ADD body of a new person uid under parent.
func (g *connGen) personLines(uid, parent string) (dn string, lines []string) {
	dn = fmt.Sprintf("uid=%s,%s", uid, parent)
	lines = []string{"ADD " + dn, "objectClass: person", "objectClass: top"}
	if g.rng.Intn(2) == 0 {
		lines = append(lines, "objectClass: researcher")
	} else {
		lines = append(lines, "objectClass: staffMember")
	}
	lines = append(lines, "name: load person "+uid)
	if g.rng.Intn(3) == 0 {
		lines = append(lines, "objectClass: online", "mail: "+uid+"@example.org")
	}
	return dn, lines
}

func (g *connGen) uid(tag string) string {
	g.seq++
	return fmt.Sprintf("w%d%s%d", g.conn, tag, g.seq)
}

func (g *connGen) add() req {
	dn, lines := g.personLines(g.uid("p"), g.pick(g.p.parents))
	g.owned = append(g.owned, dn)
	g.ledger[dn] = true
	return req{Kind: kCommit, Tx: lines, Term: "OK"}
}

// addUnit adds an orgUnit and the person it must employ as one
// transaction: either alone is illegal (orgGroup needs a person
// descendant), so this is legal only normalised as a unit (Thm 4.1).
// The pair is never touched again, so the unit is never emptied.
func (g *connGen) addUnit() req {
	unit := fmt.Sprintf("ou=%s,%s", g.uid("u"), g.pick(g.p.parents))
	dn, person := g.personLines(g.uid("p"), unit)
	g.ledger[unit], g.ledger[dn] = true, true
	lines := append([]string{"ADD " + unit, "objectClass: orgUnit", "objectClass: orgGroup", "objectClass: top"}, person...)
	return req{Kind: kCommit, Tx: lines, Term: "OK"}
}

func (g *connGen) move() req {
	if len(g.owned) == 0 {
		return g.add()
	}
	i := g.rng.Intn(len(g.owned))
	dn := g.owned[i]
	rdn, parent, _ := strings.Cut(dn, ",")
	dest := g.pick(g.p.parents)
	for dest == parent {
		dest = g.pick(g.p.parents)
	}
	moved := rdn + "," + dest
	g.owned[i] = moved
	// Not added to dead: a later move may bring the person back to dn.
	g.ledger[dn], g.ledger[moved] = false, true
	return req{Kind: kCommit, Tx: []string{"MOVE " + dn + " -> " + dest}, Term: "OK"}
}

func (g *connGen) delete() req {
	if len(g.owned) == 0 {
		return g.add()
	}
	i := g.rng.Intn(len(g.owned))
	dn := g.owned[i]
	g.owned[i] = g.owned[len(g.owned)-1]
	g.owned = g.owned[:len(g.owned)-1]
	g.dead = append(g.dead, dn)
	g.ledger[dn] = false
	return req{Kind: kCommit, Tx: []string{"DELETE " + dn}, Term: "OK"}
}

func (g *connGen) illegal() req {
	dn, lines := g.personLines(g.uid("x"), g.pick(g.p.persons))
	g.ledger[dn] = false
	return req{Kind: kCommit, Tx: lines, Term: "ILLEGAL"}
}

// live counts the ledger's surviving entries.
func live(ledger map[string]bool) int {
	n := 0
	for _, ok := range ledger {
		if ok {
			n++
		}
	}
	return n
}
