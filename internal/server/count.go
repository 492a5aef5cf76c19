package server

import (
	"fmt"
	"sort"

	"boundschema/internal/proto"
)

// COUNT is the boundary-count query behind cross-shard legality
// (internal/shard): it answers "how many entries of class c lie
// (strictly) below this DN" straight from the interval encoding the
// directory already maintains — the same pre/post ranks the legality
// engine's Δ-queries use — without materializing the entries. Its
// grammar is proto.ParseCountArgs.
//
// The reply is a single "count: N" line. A base DN this node does not
// hold counts zero rather than erroring: the router fans the query out
// and a shard that owns no part of the boundary subtree contributes
// nothing — absence is an answer, not a fault.
func (se *session) count(rest string) {
	a, err := proto.ParseCountArgs(rest)
	if err != nil {
		se.w.Err(err.Error())
		return
	}
	se.srv.mu.RLock()
	defer se.srv.mu.RUnlock()
	dir := se.srv.dir
	n := 0
	switch {
	case !a.HasBase:
		n = dir.ClassCount(a.Class)
	default:
		e := dir.ByDN(a.Base)
		if e == nil {
			break // absent base: this node holds none of the subtree
		}
		if a.Child {
			for _, ch := range e.Children() {
				if ch.HasClass(a.Class) {
					n++
				}
			}
			break
		}
		// The posting list is sorted by pre-order rank, so the proper
		// descendants of e are one contiguous run: (e.pre, e.post].
		posting := dir.ClassEntries(a.Class)
		lo := sort.Search(len(posting), func(i int) bool { return posting[i].Pre() > e.Pre() })
		hi := sort.Search(len(posting), func(i int) bool { return posting[i].Pre() > e.Post() })
		n = hi - lo
	}
	se.w.Line(fmt.Sprintf("count: %d", n))
	se.w.OK()
}
