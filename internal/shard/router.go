package shard

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"boundschema/internal/proto"
)

// Router speaks the line protocol (internal/proto) in front of a shard
// map: DN-prefixed commands go to the owning shard over pooled
// connections, reads without a routable base fan out to every shard and
// come back merged in canonical hierarchical DN order. Transactions are
// buffered at the router and replayed to the single owning shard at
// COMMIT — Theorem 4.1's normalized Δs are subtree-confined, so a
// transaction that would span two shards is refused with a parseable
// ERR rather than half-applied.
//
// Scope: the router targets shard primaries. Replicas behind a shard
// still serve reads directly and failover behind a shard is the
// operator's shard-map edit — the router adds partitioning, not
// another consensus layer.
type Router struct {
	m     *Map
	pools map[string]*pool
	coord *coordinator

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	connsMu   sync.Mutex
	conns     map[net.Conn]struct{}

	errorLog *log.Logger
	dialer   func(addr string, timeout time.Duration) (net.Conn, error)

	// metrics, served by METRICS.
	cmdsTotal   atomic.Int64
	fanouts     atomic.Int64
	unroutable  atomic.Int64
	crossShard  atomic.Int64
	shardErrors atomic.Int64
	routedMu    sync.Mutex
	routed      map[string]int64 // per shard name
}

// NewRouter builds a router over a validated map. Call Listen to serve.
func NewRouter(m *Map) *Router {
	rt := &Router{
		m:      m,
		pools:  make(map[string]*pool),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		routed: make(map[string]int64),
	}
	for _, sh := range m.All() {
		rt.pools[sh.Name] = newPool(sh, nil)
	}
	rt.coord = newCoordinator(rt)
	return rt
}

// SetErrorLog installs a logger for operational events. nil discards.
func (rt *Router) SetErrorLog(l *log.Logger) { rt.errorLog = l }

// SetDialer replaces the dialer behind every shard pool (tests thread
// fault injectors through it). Call before Listen.
func (rt *Router) SetDialer(d func(addr string, timeout time.Duration) (net.Conn, error)) {
	rt.dialer = d
	for _, sh := range rt.m.All() {
		rt.pools[sh.Name] = newPool(sh, d)
	}
}

// Map returns the router's shard map.
func (rt *Router) Map() *Map { return rt.m }

func (rt *Router) logf(format string, args ...any) {
	if rt.errorLog != nil {
		rt.errorLog.Printf(format, args...)
	}
}

// Listen starts accepting client sessions on addr and returns the
// bound address.
func (rt *Router) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.ln = ln
	rt.wg.Add(1)
	go rt.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener, closes client sessions and shard pools.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() { close(rt.closed) })
	var err error
	if rt.ln != nil {
		err = rt.ln.Close()
	}
	rt.connsMu.Lock()
	for c := range rt.conns {
		c.Close()
	}
	rt.connsMu.Unlock()
	rt.wg.Wait()
	for _, p := range rt.pools {
		p.close()
	}
	return err
}

func (rt *Router) acceptLoop() {
	defer rt.wg.Done()
	for {
		conn, err := rt.ln.Accept()
		if err != nil {
			select {
			case <-rt.closed:
				return
			default:
			}
			rt.logf("router: accept: %v", err)
			select {
			case <-time.After(5 * time.Millisecond):
			case <-rt.closed:
				return
			}
			continue
		}
		rt.connsMu.Lock()
		rt.conns[conn] = struct{}{}
		rt.connsMu.Unlock()
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			defer func() {
				rt.connsMu.Lock()
				delete(rt.conns, conn)
				rt.connsMu.Unlock()
				conn.Close()
			}()
			rt.serve(conn)
		}()
	}
}

// rsession is one client session at the router. Transactions are
// buffered here — body lines produce no replies, exactly as on a
// shard — and replayed on COMMIT.
type rsession struct {
	rt *Router
	w  *proto.Writer

	inTx       bool
	txShard    *Shard
	txBody     []string
	pendingAdd bool
	// txOps and txBytes are what txBody holds, against proto.MaxTxOps
	// and proto.MaxTxBytes.
	txOps, txBytes int
}

func (rt *Router) serve(conn net.Conn) {
	sc := proto.NewScanner(conn)
	se := &rsession{rt: rt, w: proto.NewWriter(conn)}
	for {
		select {
		case <-rt.closed:
			se.w.Err("router " + proto.ShuttingDown)
			se.w.Flush()
			return
		default:
		}
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				proto.RefuseTooLong(se.w, conn)
			}
			se.w.Flush()
			return
		}
		rt.cmdsTotal.Add(1)
		quit := se.handle(sc.Text())
		se.w.Flush()
		if quit {
			return
		}
	}
}

// unroutableMsg and shardDownMsg word the router's wrong_shard and
// shard_down refusals around their proto stems.
func unroutableMsg(dn string) string {
	return fmt.Sprintf("%s %q: no shard owns it and the map has no default shard", proto.Unroutable, dn)
}

func shardDownMsg(sh *Shard, err error) string {
	return fmt.Sprintf("shard %s %s: %v", sh.Name, proto.Unavailable, err)
}

func (se *rsession) handle(line string) bool {
	trimmed := strings.TrimSpace(line)
	if se.inTx {
		se.handleTx(trimmed)
		return false
	}
	cmd, rest := proto.Split(trimmed)
	switch cmd {
	case "":
		// blank line between commands
	case "QUIT":
		se.w.OK()
		return true
	case "SEARCH":
		se.search(rest)
	case "GET":
		se.routeByDN(strings.TrimSpace(rest), trimmed)
	case "COUNT":
		se.count(rest)
	case "BEGIN":
		se.abortTx() // a transaction starts from abortTx's empty state
		se.inTx = true
		se.w.OK()
	case "CHECK":
		se.check()
	case "VERIFY":
		se.fanVerify("VERIFY")
	case "SNAPSHOT":
		se.fanVerify("SNAPSHOT")
	case "STAT":
		se.stat()
	case "METRICS":
		se.metricsCmd()
	case "SHARDMAP":
		se.w.Line(se.rt.m.Render()...)
		se.w.OK()
	case "SCHEMA", "CONSISTENT":
		sh := se.rt.anchorShard()
		r, err := se.rt.do(sh, trimmed)
		if err != nil {
			se.shardDown(sh, err)
			return false
		}
		se.w.Relay(r)
	case "QUERY":
		se.w.Err("QUERY is not routable; connect to a shard directly")
	case "PROMOTE":
		se.w.Err("PROMOTE is not routable; promote the shard node directly")
	default:
		se.w.Err(proto.UnknownCommand(cmd))
	}
	return false
}

// handleTx buffers one transaction-body line under the shard server's
// grammar: body lines are silent on success, any refusal replies at
// once and drops the transaction.
func (se *rsession) handleTx(line string) {
	l, err := proto.ParseTxLine(line, se.pendingAdd, se.txOps, se.txBytes)
	if err != nil {
		se.w.Err(err.Error())
		se.abortTx()
		return
	}
	se.txBytes += len(line)
	if l.Cmd != "" {
		se.pendingAdd = false
		se.txOps++
	}
	switch l.Cmd {
	case "ADD":
		if !se.bindTx(l.DN) {
			return
		}
		se.pendingAdd = true
	case "DELETE":
		if se.rt.m.IsSpine(l.DN) {
			se.rt.crossShard.Add(1)
			se.w.Err(fmt.Sprintf("%s delete: %q is a spine entry whose subtree spans shards", proto.CrossShard, l.DN))
			se.abortTx()
			return
		}
		if !se.bindTx(l.DN) {
			return
		}
	case "MOVE":
		if !se.moveTx(l.DN, l.Dest) {
			return
		}
	case "COMMIT":
		se.commit()
		return
	case "ABORT":
		se.abortTx()
		se.w.OK()
		return
	case "":
		if !l.Attr {
			return // blank line inside a transaction is a no-op
		}
	}
	se.txBody = append(se.txBody, line)
}

// bindTx resolves dn's owner and binds the transaction to it. A DN no
// shard owns, or one owned by a different shard than the transaction
// is already bound to, replies ERR and drops the transaction.
func (se *rsession) bindTx(dn string) bool {
	owner := se.rt.m.Owner(dn)
	if owner == nil {
		se.rt.unroutable.Add(1)
		se.w.Err(unroutableMsg(dn))
		se.abortTx()
		return false
	}
	if se.txShard == nil {
		se.txShard = owner
		return true
	}
	if se.txShard != owner {
		se.rt.crossShard.Add(1)
		se.w.Err(fmt.Sprintf("%s transaction: %q is owned by shard %s but the transaction is bound to shard %s",
			proto.CrossShard, dn, owner.Name, se.txShard.Name))
		se.abortTx()
		return false
	}
	return true
}

// moveTx checks a MOVE: the moved subtree and its destination must live
// on one shard, and neither may disturb the spine or the shard cut
// itself.
func (se *rsession) moveTx(dn, dest string) bool {
	m := se.rt.m
	if m.IsSpine(dn) {
		se.rt.crossShard.Add(1)
		se.w.Err(fmt.Sprintf("%s move: %q is a spine entry whose subtree spans shards", proto.CrossShard, dn))
		se.abortTx()
		return false
	}
	if sh := m.RootShard(dn); sh != nil {
		se.rt.crossShard.Add(1)
		se.w.Err(fmt.Sprintf("%s move: %q is the root of shard %s; re-carve the map to move it", proto.CrossShard, dn, sh.Name))
		se.abortTx()
		return false
	}
	rdn, _, _ := strings.Cut(dn, ",")
	newDN := rdn
	if dest != "" {
		newDN = rdn + "," + dest
	}
	srcOwner, dstOwner := m.Owner(dn), m.Owner(newDN)
	if srcOwner == nil || dstOwner == nil {
		se.rt.unroutable.Add(1)
		se.w.Err(unroutableMsg(dn))
		se.abortTx()
		return false
	}
	if srcOwner != dstOwner {
		se.rt.crossShard.Add(1)
		se.w.Err(fmt.Sprintf("%s move: %q is owned by shard %s but destination %q is owned by shard %s; move within one shard or re-carve the map",
			proto.CrossShard, dn, srcOwner.Name, newDN, dstOwner.Name))
		se.abortTx()
		return false
	}
	return se.bindTx(dn)
}

func (se *rsession) abortTx() {
	se.inTx = false
	se.txShard = nil
	se.txBody = nil
	se.pendingAdd = false
	se.txOps, se.txBytes = 0, 0
}

// commit replays the buffered transaction to its owning shard and
// relays the COMMIT reply. An empty transaction commits against the
// anchor shard (it is a no-op everywhere).
func (se *rsession) commit() {
	sh := se.txShard
	if sh == nil {
		sh = se.rt.anchorShard()
	}
	body := se.txBody
	se.abortTx()
	se.rt.noteRouted(sh)
	p := se.rt.pools[sh.Name]
	conn, err := p.get()
	if err != nil {
		se.shardDown(sh, err)
		return
	}
	r, err := conn.Txn(body)
	if err != nil {
		conn.Close()
		se.shardDown(sh, err)
		return
	}
	// An ERR reply can come from BEGIN or from a mid-body line rather
	// than COMMIT itself; the shard session then queued further replies
	// for the remaining replayed lines. Discard the connection instead
	// of resynchronizing it.
	if r.Term == "ERR" {
		conn.Close()
	} else {
		p.put(conn)
	}
	se.w.Relay(r)
}

func (se *rsession) shardDown(sh *Shard, err error) {
	se.rt.shardErrors.Add(1)
	se.w.Err(shardDownMsg(sh, err))
}

// anchorShard is the shard schema-level queries go to: the default
// shard (it holds the real spine) or the first carved shard.
func (rt *Router) anchorShard() *Shard {
	if rt.m.Default != nil {
		return rt.m.Default
	}
	return rt.m.Shards[0]
}

func (rt *Router) noteRouted(sh *Shard) {
	rt.routedMu.Lock()
	rt.routed[sh.Name]++
	rt.routedMu.Unlock()
}

// do runs one single-reply command against a shard, retrying once on a
// transport error with a fresh connection. ERR replies leave the
// connection clean (one reply per command), so it is pooled again.
func (rt *Router) do(sh *Shard, line string) (proto.Reply, error) {
	rt.noteRouted(sh)
	p := rt.pools[sh.Name]
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := p.get()
		if err != nil {
			return proto.Reply{}, err
		}
		r, err := conn.Do(line)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		p.put(conn)
		return r, nil
	}
	return proto.Reply{}, lastErr
}

type fanRes struct {
	sh  *Shard
	r   proto.Reply
	err error
}

// fanOut runs one command against many shards concurrently, results in
// shard order.
func (rt *Router) fanOut(shards []*Shard, line string) []fanRes {
	rt.fanouts.Add(1)
	out := make([]fanRes, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			r, err := rt.do(sh, line)
			out[i] = fanRes{sh: sh, r: r, err: err}
		}(i, sh)
	}
	wg.Wait()
	return out
}

// routeByDN relays a whole command line to the shard owning dn (GET).
func (se *rsession) routeByDN(dn, line string) {
	sh := se.rt.m.Owner(dn)
	if sh == nil {
		if hs := se.rt.m.Holders(dn); len(hs) > 0 {
			sh = hs[0] // spine ghost on a map without a default shard
		}
	}
	if sh == nil {
		se.rt.unroutable.Add(1)
		se.w.Err(unroutableMsg(dn))
		return
	}
	r, err := se.rt.do(sh, line)
	if err != nil {
		se.shardDown(sh, err)
		return
	}
	se.w.Relay(r)
}

// search parses with the protocol's grammar, routes to the owning
// shard when the base pins one, else fans out to every shard (or the
// holders of a spine base) and merges: duplicates removed (spine
// ghosts exist on several shards), canonical hierarchical DN order,
// limit applied after the merge so it is deterministic regardless of
// which shard answers first.
func (se *rsession) search(rest string) {
	args, err := proto.ParseSearchArgs(rest)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	fwd := args
	fwd.Limit = -1
	var targets []*Shard
	switch {
	case !args.HasBase:
		targets = se.rt.m.All()
	case se.rt.m.IsSpine(args.Base):
		targets = se.rt.m.Holders(args.Base)
	default:
		sh := se.rt.m.Owner(args.Base)
		if sh == nil {
			se.rt.unroutable.Add(1)
			se.w.Err(unroutableMsg(args.Base))
			return
		}
		targets = []*Shard{sh}
	}
	results := se.rt.fanOut(targets, fwd.Line())
	seen := make(map[string]bool)
	var dns []string
	for _, fr := range results {
		if fr.err != nil {
			se.shardDown(fr.sh, fr.err)
			return
		}
		if fr.r.Term != "OK" {
			if len(targets) == 1 {
				se.w.Relay(fr.r) // e.g. base not found, byte-identical to a single node
			} else {
				se.w.Err(fmt.Sprintf("shard %s: %s", fr.sh.Name, fr.r.Err))
			}
			return
		}
		for _, dn := range fr.r.Lines {
			if !seen[dn] {
				seen[dn] = true
				dns = append(dns, dn)
			}
		}
	}
	SortDNs(dns)
	if args.Limit >= 0 && len(dns) > args.Limit {
		dns = dns[:args.Limit]
	}
	se.w.Line(dns...)
	se.w.OK()
}

// check fans CHECK out and, if every shard is locally legal, runs the
// coordinator's cross-shard audit over the spine. Shard-local
// violations come back prefixed with the shard name.
func (se *rsession) check() {
	var bad []string
	for _, fr := range se.rt.fanOut(se.rt.m.All(), "CHECK") {
		if fr.err != nil {
			se.shardDown(fr.sh, fr.err)
			return
		}
		switch fr.r.Term {
		case "OK":
		case "ILLEGAL":
			for _, l := range fr.r.Lines {
				bad = append(bad, fmt.Sprintf("# [%s] %s", fr.sh.Name, strings.TrimPrefix(l, "# ")))
			}
		default:
			se.w.Err(fmt.Sprintf("shard %s: %s", fr.sh.Name, fr.r.Err))
			return
		}
	}
	if len(bad) > 0 {
		se.w.Line(bad...)
		se.w.Illegal()
		return
	}
	viols, err := se.rt.coord.audit()
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	if len(viols) > 0 {
		for _, v := range viols {
			se.w.Comment(proto.CrossShard + ": " + v)
		}
		se.w.Illegal()
		return
	}
	se.w.OK()
}

// fanVerify fans VERIFY (or SNAPSHOT) to every shard, shard-labelling
// the comment lines. All OK ⇒ OK.
func (se *rsession) fanVerify(cmd string) {
	for _, fr := range se.rt.fanOut(se.rt.m.All(), cmd) {
		if fr.err != nil {
			se.shardDown(fr.sh, fr.err)
			return
		}
		if fr.r.Term != "OK" {
			se.w.Err(fmt.Sprintf("shard %s: %s", fr.sh.Name, fr.r.Err))
			return
		}
		for _, l := range fr.r.Lines {
			se.w.Comment(fmt.Sprintf("[%s] %s", fr.sh.Name, strings.TrimPrefix(l, "# ")))
		}
	}
	se.w.OK()
}

// stat aggregates STAT across shards with ghost correction: spine
// entries exist once per holder but once in the directory, so each
// extra copy is subtracted from the entry and per-class totals.
func (se *rsession) stat() {
	spineClasses, err := se.rt.coord.ensureSpine()
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	type shardStat struct {
		sh      *Shard
		entries int
	}
	var per []shardStat
	total := 0
	classes := map[string]int{}
	for _, fr := range se.rt.fanOut(se.rt.m.All(), "STAT") {
		if fr.err != nil {
			se.shardDown(fr.sh, fr.err)
			return
		}
		if fr.r.Term != "OK" {
			se.w.Err(fmt.Sprintf("shard %s: %s", fr.sh.Name, fr.r.Err))
			return
		}
		st := shardStat{sh: fr.sh}
		for _, l := range fr.r.Lines {
			if v, ok := strings.CutPrefix(l, "entries: "); ok {
				fmt.Sscanf(v, "%d", &st.entries)
			}
			if v, ok := strings.CutPrefix(l, "class "); ok {
				name, count, ok2 := strings.Cut(v, ": ")
				if ok2 {
					n := 0
					fmt.Sscanf(count, "%d", &n)
					classes[name] += n
				}
			}
		}
		total += st.entries
		per = append(per, st)
	}
	// Ghost correction: each spine entry is real once and ghosted on
	// len(Holders)-1 further shards.
	for _, s := range se.rt.m.Spine() {
		extra := len(se.rt.m.Holders(s)) - 1
		if extra <= 0 {
			continue
		}
		total -= extra
		for _, c := range spineClasses[s] {
			classes[c] -= extra
		}
	}
	se.w.Line("role: router")
	se.w.Line(fmt.Sprintf("shards: %d", len(se.rt.m.All())))
	for _, st := range per {
		se.w.Line(fmt.Sprintf("shard %s: addr=%s entries=%d", st.sh.Name, st.sh.Addr, st.entries))
	}
	se.w.Line(fmt.Sprintf("entries: %d", total))
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		se.w.Line(fmt.Sprintf("class %s: %d", c, classes[c]))
	}
	se.w.OK()
}

// count serves COUNT at the router: fanned out and ghost-corrected, so
// the answer matches what a single unsharded node would say.
func (se *rsession) count(rest string) {
	a, err := proto.ParseCountArgs(rest)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	n, err := se.rt.countAcrossShards(a)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	se.w.Line(fmt.Sprintf("count: %d", n))
	se.w.OK()
}

// countAcrossShards evaluates one boundary count: fan the COUNT to the
// shards that can hold matches, sum, and subtract the ghost
// multiplicity the coordinator derives from the static map.
func (rt *Router) countAcrossShards(a proto.CountArgs) (int, error) {
	var targets []*Shard
	switch {
	case !a.HasBase:
		targets = rt.m.All()
	case rt.m.IsSpine(a.Base):
		targets = rt.m.Holders(a.Base)
	default:
		sh := rt.m.Owner(a.Base)
		if sh == nil {
			return 0, errors.New(unroutableMsg(a.Base))
		}
		targets = []*Shard{sh}
	}
	total := 0
	for _, fr := range rt.fanOut(targets, a.Line()) {
		if fr.err != nil {
			rt.shardErrors.Add(1)
			return 0, errors.New(shardDownMsg(fr.sh, fr.err))
		}
		if fr.r.Term != "OK" {
			return 0, fmt.Errorf("shard %s: %s", fr.sh.Name, fr.r.Err)
		}
		for _, l := range fr.r.Lines {
			if v, ok := strings.CutPrefix(l, "count: "); ok {
				n := 0
				fmt.Sscanf(v, "%d", &n)
				total += n
			}
		}
	}
	if len(targets) > 1 {
		corr, err := rt.coord.correction(a)
		if err != nil {
			return 0, err
		}
		total -= corr
	}
	return total, nil
}

func (se *rsession) metricsCmd() {
	rt := se.rt
	se.w.Line(fmt.Sprintf("router: commands=%d fanouts=%d", rt.cmdsTotal.Load(), rt.fanouts.Load()))
	se.w.Line(fmt.Sprintf("refusals: unroutable=%d cross_shard=%d", rt.unroutable.Load(), rt.crossShard.Load()))
	se.w.Line(fmt.Sprintf("shard_errors: %d", rt.shardErrors.Load()))
	rt.routedMu.Lock()
	names := make([]string, 0, len(rt.routed))
	for n := range rt.routed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		se.w.Line(fmt.Sprintf("routed %s: %d", n, rt.routed[n]))
	}
	rt.routedMu.Unlock()
	se.w.OK()
}
