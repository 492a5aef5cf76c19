package loadgen

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPromotionRaceSpacedSearchAndRedirects is the regression test for
// the two protocol bugs the load harness hunted: it hammers a replica
// with BEGIN..COMMIT transactions and SEARCHes over spaced base DNs
// while the node is being PROMOTEd, and requires that (a) every reply
// frames correctly (the clients never desync, which is what the
// single-line ERR grammar guarantees), (b) every pre-promotion redirect
// advertises the primary's dialable CLIENT address, and (c) spaced base
// DNs parse identically before, during, and after the role flip.
func TestPromotionRaceSpacedSearchAndRedirects(t *testing.T) {
	sc, _ := ScenarioByName("netpolicy") // every 4th subnet has a spaced RDN
	cl, err := StartCluster(sc, 400, 1, 13, asyncRepl)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r := cl.Replicas[0]

	var spaced []string
	for _, dn := range cl.Pools.Bases {
		if strings.Contains(dn, " ") {
			spaced = append(spaced, dn)
		}
	}
	if len(spaced) == 0 {
		t.Fatal("netpolicy corpus produced no spaced base DNs")
	}

	const hammerers = 6
	const maxOps = 5000 // safety cap; workers normally stop a few commits after the flip
	var wg sync.WaitGroup
	errc := make(chan error, hammerers)
	var mu sync.Mutex
	var redirects, commits, readOnly int
	var promoted atomic.Bool

	for w := 0; w < hammerers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c *Client
			myCommits := 0
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for i := 0; i < maxOps; i++ {
				// Keep hammering through the flip, then land a few writes on
				// the promoted node before stopping.
				if promoted.Load() && myCommits >= 3 {
					return
				}
				if c == nil {
					var err error
					if c, err = Dial(r.Addr); err != nil {
						return // replica listener may drop conns mid-flip
					}
				}
				if i%2 == 0 {
					// Spaced base: the whole tail after base= is the DN.
					base := spaced[(w+i)%len(spaced)]
					resp, err := c.Do("SEARCH (objectClass=host) base=" + base)
					if err != nil {
						c.Close()
						c = nil
						continue
					}
					if !resp.OK() {
						errc <- &searchErr{base: base, term: resp.Term, msg: resp.Err}
						return
					}
					if len(resp.Lines) == 0 {
						errc <- &searchErr{base: base, term: "OK", msg: "no hosts under a subnet base"}
						return
					}
					continue
				}
				host := "cn=race" + strconv.Itoa(w) + "h" + strconv.Itoa(i) + ","
				resp, err := c.Txn([]string{
					"ADD " + host + spaced[w%len(spaced)],
					"objectClass: host", "objectClass: netElement", "objectClass: top",
					"ipAddress: 10.250." + strconv.Itoa(w) + "." + strconv.Itoa(i),
				})
				if err != nil {
					c.Close()
					c = nil
					continue
				}
				switch cls := classify(resp, nil); cls {
				case "":
					myCommits++
					mu.Lock()
					commits++
					mu.Unlock()
				case errRedirect:
					addr := redirectAddr(resp.Err)
					if addr != cl.Primary.Addr {
						errc <- &searchErr{base: "redirect", term: resp.Term,
							msg: "advertised " + addr + ", want client addr " + cl.Primary.Addr}
						return
					}
					mu.Lock()
					redirects++
					mu.Unlock()
				case errIllegal:
					errc <- &searchErr{base: "txn", term: "ILLEGAL", msg: strings.Join(resp.Lines, " / ")}
					return
				case errReadOnly:
					mu.Lock()
					readOnly++
					mu.Unlock()
				case errShutdown, errNotFound, errOther:
					errc <- &searchErr{base: "txn", term: resp.Term, msg: resp.Err}
					return
				}
			}
		}(w)
	}

	// Flip the role mid-hammer: a short head start guarantees some
	// pre-flip writes observe the redirect path.
	time.Sleep(30 * time.Millisecond)
	if err := promote(r.Addr, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	promoted.Store(true)
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Error(e)
	}
	if redirects == 0 {
		t.Error("no pre-promotion write was redirected (promotion won before any write; rerun with more load)")
	}
	if commits == 0 {
		t.Error("no post-promotion write committed")
	}
	t.Logf("race: %d redirects, %d commits, %d read-only refusals", redirects, commits, readOnly)

	// The promoted node must still serve a legal, verifiable instance.
	if err := oracle(cl.Schema, []*Node{r}); err != nil {
		t.Fatal(err)
	}
}

type searchErr struct{ base, term, msg string }

func (e *searchErr) Error() string {
	return "during promotion: " + e.base + ": " + e.term + " " + e.msg
}
