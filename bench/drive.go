package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"boundschema/internal/loadgen"
)

// bsd is one running server child.
type bsd struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time // exec
}

// files are the inputs every bsd of a run boots from.
type files struct {
	bin, schema, ldif, dir string
}

// startBSD execs bsd on the run's corpus and the given journal and
// returns once it prints its serving line: real journal, real fsync,
// group commit on (the default), no rotation, GOMAXPROCS = CPUs.
func startBSD(f files, journal string) (*bsd, error) {
	cmd := exec.Command(f.bin, "-schema", f.schema, "-instance", f.ldif,
		"-journal", journal, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	b := &bsd{cmd: cmd, start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bsd: %w", err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), " entries) on "); ok {
			b.addr = addr
			return b, nil
		}
	}
	b.kill()
	return nil, fmt.Errorf("bsd exited before serving (journal %s)", journal)
}

// kill is kill -9: nothing bsd has not fsynced survives in its own
// buffers. It returns once the process has been reaped.
func (b *bsd) kill() {
	_ = b.cmd.Process.Kill() // already exited is fine
	_ = b.cmd.Wait()         // "signal: killed" is the expected outcome
}

// rssMB reads VmRSS of the child.
func (b *bsd) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", b.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", b.cmd.Process.Pid)
}

// verify checks a reply against the generator's expectation.
func (q *req) verify(resp loadgen.Resp, err error) bool {
	if err != nil || resp.Term != q.Term {
		return false
	}
	switch {
	case q.Kind == kGet && q.Term == "OK":
		if len(resp.Lines) == 0 || resp.Lines[0] != "dn: "+q.Cmd[len("GET "):] {
			return false
		}
		for _, l := range resp.Lines[1:] {
			if l == q.Line {
				return true
			}
		}
		return false
	case q.Kind == kGet:
		return strings.HasPrefix(resp.Err, "no entry")
	case q.Kind == kSearch:
		if len(resp.Lines) != q.N {
			return false
		}
		for _, l := range resp.Lines {
			if l != q.Line && !strings.HasSuffix(l, ","+q.Line) {
				return false
			}
		}
	}
	return true
}

func (q *req) do(c *loadgen.Client) (loadgen.Resp, error) {
	if q.Kind == kCommit {
		return c.Txn(q.Tx)
	}
	return c.Do(q.Cmd)
}

// phaseResult is what one phase of one trial measured.
type phaseResult struct {
	wall      time.Duration
	lat       [numKinds][]int64 // ns, verified requests only
	attempted int
	failed    int
	firstBad  string
}

const conns = 2

// runPhase drives the two streams from two closed-loop connections with
// no think time: each sends its next request when the previous reply has
// been read and verified. With a tracer it also records one span per
// request.
func runPhase(clients [conns]*loadgen.Client, streams [conns][]req, tr *tracer) phaseResult {
	var parts [conns]phaseResult
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for k := range p.lat {
				p.lat[k] = make([]int64, 0, len(streams[c]))
			}
			for i := range streams[c] {
				q := &streams[c][i]
				t0 := time.Now()
				resp, err := q.do(clients[c])
				t1 := time.Now()
				p.attempted++
				if !q.verify(resp, err) {
					if p.failed == 0 {
						p.firstBad = fmt.Sprintf("%s%v -> %s %s %v (%d lines, want %s n=%d)",
							q.Cmd, q.Tx, resp.Term, resp.Err, err, len(resp.Lines), q.Term, q.N)
					}
					p.failed++
					if err != nil {
						return // the connection is gone; the rest would fail the same way
					}
					continue
				}
				p.lat[q.Kind] = append(p.lat[q.Kind], int64(t1.Sub(t0)))
				if tr != nil {
					tr.wire(c, kindNames[q.Kind], t0, t1)
				}
			}
		}(c)
	}
	wg.Wait()
	out := phaseResult{wall: time.Since(begin)}
	for c := range parts {
		out.attempted += parts[c].attempted
		out.failed += parts[c].failed
		if out.firstBad == "" {
			out.firstBad = parts[c].firstBad
		}
		for k := range out.lat {
			out.lat[k] = append(out.lat[k], parts[c].lat[k]...)
		}
	}
	return out
}

// phase is one timed stretch of a trial: a request stream per connection.
type phase struct {
	name    string
	streams [conns][]req
}

// Phase indexes of run.phases. Idle and contend exist on traced runs only.
const (
	phMain = iota
	phProbe
	phIdle
	phContend
)

// run is everything one benchmark run shares between its trials: the
// server's inputs, the request streams and the state they must leave.
type run struct {
	spec    spec
	seed    int64
	files   files
	pools   *pools
	ready   []req // the four SEARCH shapes, one each
	warm    [conns][]req
	phases  []phase
	ledger  map[string]bool
	entries int // corpus + surviving writes
	commits int // transactions per trial that must answer OK
	illegal int // transactions per trial that must answer ILLEGAL
}

const (
	warmOps    = 1000 // per connection
	idleOps    = 4000 // traced runs: reads on connection 0 with connection 1 silent
	contendOps = 1500 // traced runs: the mixed mix on both connections
)

// newRun generates the request streams of a run from the seed. A traced
// run appends two phases that every workload needs for its per-layer
// rows: reads on one otherwise idle connection, and reads queueing
// behind the other connection's commits.
func newRun(sp spec, f files, p *pools, seed int64, traced bool) *run {
	r := &run{spec: sp, seed: seed, files: f, pools: p, ledger: make(map[string]bool)}
	r.phases = []phase{{name: "main"}, {name: "probe"}}
	if traced {
		r.phases = append(r.phases, phase{name: "idle"}, phase{name: "contend"})
	}
	for c := 0; c < conns; c++ {
		g := newConnGen(seed, c, p)
		if c == 0 {
			for shape := 0; shape < 4; shape++ {
				r.ready = append(r.ready, g.searchShape(shape, p.bases[0]))
			}
		}
		r.warm[c] = g.stream(mixRead, warmOps)
		r.phases[phMain].streams[c] = g.stream(sp.main, sp.mainOps)
		r.phases[phProbe].streams[c] = g.stream(sp.probe, sp.probeOps)
		if traced {
			if c == 0 {
				r.phases[phIdle].streams[c] = g.stream(mixRead, idleOps)
			}
			r.phases[phContend].streams[c] = g.stream(mixMixed, contendOps)
		}
		for dn, ok := range g.ledger {
			r.ledger[dn] = ok
		}
	}
	r.entries = p.entries + live(r.ledger)
	for _, ph := range r.phases {
		for _, s := range ph.streams {
			for i := range s {
				switch {
				case s[i].Kind == kCommit && s[i].Term == "OK":
					r.commits++
				case s[i].Kind == kCommit:
					r.illegal++
				}
			}
		}
	}
	return r
}

// trialResult holds what one trial measured: the cold-path times and RSS
// by metric name, the latency samples of each phase, and the counts a
// traced run reports.
type trialResult struct {
	metrics      map[string]float64
	attempted    int
	failed       int
	firstBad     string
	journalBytes int64
	perFsync     float64
	phases       []phaseResult // aligned with run.phases
}

// fail records a failed check outside the streams.
func (t *trialResult) fail(format string, args ...any) {
	if t.failed == 0 {
		t.firstBad = fmt.Sprintf(format, args...)
	}
	t.failed++
}

// expectOK sends a command that must answer OK.
func (t *trialResult) expectOK(c *loadgen.Client, cmd string) loadgen.Resp {
	resp, err := c.Do(cmd)
	t.attempted++
	if err != nil || !resp.OK() {
		t.fail("%s -> %s %s %v", cmd, resp.Term, resp.Err, err)
	}
	return resp
}

// checkStat compares STAT's entry count with the ledger.
func (t *trialResult) checkStat(c *loadgen.Client, want int) {
	resp := t.expectOK(c, "STAT")
	for _, l := range resp.Lines {
		if n, ok := strings.CutPrefix(l, "entries: "); ok {
			if got, _ := strconv.Atoi(n); got != want {
				t.fail("STAT entries %d, ledger says %d", got, want)
			}
			return
		}
	}
	t.fail("STAT printed no entry count")
}

// trial runs one fresh bsd on a fresh journal through the whole cycle:
// boot, first SEARCHes, warm-up, CHECKs, main phase, probe phase, RSS,
// STAT/CHECK against the ledger, kill -9, recovery from the journal,
// and a GET of every DN the streams ever wrote. A non-empty keepJournal
// receives a copy of the journal as the crash left it.
func (r *run) trial(n int, tr *tracer, keepJournal string) (*trialResult, error) {
	t := &trialResult{metrics: make(map[string]float64)}
	journal := filepath.Join(r.files.dir, fmt.Sprintf("journal-%d.ldif", n))
	defer os.Remove(journal)
	srv, err := startBSD(r.files, journal)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	var clients [conns]*loadgen.Client
	for c := range clients {
		if clients[c], err = loadgen.Dial(srv.addr); err != nil {
			return nil, err
		}
		defer clients[c].Close()
	}

	// Cold path: the first answer of each SEARCH shape pays for the lazy
	// value-index builds.
	for i := range r.ready {
		resp, err := r.ready[i].do(clients[0])
		t.attempted++
		if !r.ready[i].verify(resp, err) {
			t.fail("first %s -> %s %s %v (%d lines, want %d)", r.ready[i].Cmd, resp.Term, resp.Err, err, len(resp.Lines), r.ready[i].N)
		}
	}
	t.metrics["ready_s"] = time.Since(srv.start).Seconds()
	warm := runPhase(clients, r.warm, nil)
	t.metrics["setup_s"] = time.Since(srv.start).Seconds()

	checks := make([]float64, r.spec.checks)
	for i := range checks {
		t0 := time.Now()
		t.expectOK(clients[0], "CHECK")
		checks[i] = float64(time.Since(t0)) / 1e6
	}
	t.metrics["check_ms"] = slices.Min(checks)

	var before map[string]float64
	if tr != nil {
		before = scrapeMetrics(t, clients[0])
	}
	for _, ph := range r.phases {
		t.phases = append(t.phases, runPhase(clients, ph.streams, tr))
	}
	if tr != nil {
		after := scrapeMetrics(t, clients[0])
		if f := after["fsyncs"] - before["fsyncs"]; f > 0 {
			t.perFsync = (after["commits"] - before["commits"]) / f
		}
	}
	if t.metrics["rss_mb"], err = srv.rssMB(); err != nil {
		return nil, err
	}
	m := t.phases[phMain]
	t.metrics["ops_per_s"] = float64(m.attempted-m.failed) / m.wall.Seconds()
	for _, p := range append([]phaseResult{warm}, t.phases...) {
		t.attempted += p.attempted
		if p.failed > 0 {
			t.fail("%s", p.firstBad)
			t.failed += p.failed - 1
		}
	}

	// The state the streams must have left, then a crash.
	t.checkStat(clients[0], r.entries)
	t.expectOK(clients[0], "CHECK")
	if fi, err := os.Stat(journal); err == nil {
		t.journalBytes = fi.Size()
	}
	srv.kill()
	if keepJournal != "" {
		if err := copyFile(keepJournal, journal); err != nil {
			return nil, err
		}
	}

	// Recovery: every acknowledged write must have survived kill -9.
	srv, err = startBSD(r.files, journal)
	if err != nil {
		return nil, err
	}
	t.metrics["recover_s"] = time.Since(srv.start).Seconds()
	c, err := loadgen.Dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	t.checkStat(c, r.entries)
	dns := make([]string, 0, len(r.ledger))
	for dn := range r.ledger {
		dns = append(dns, dn)
	}
	slices.Sort(dns)
	for _, dn := range dns {
		resp, err := c.Do("GET " + dn)
		t.attempted++
		if err != nil || resp.OK() != r.ledger[dn] {
			t.fail("after recovery GET %s -> %s %v, ledger says live=%v", dn, resp.Term, err, r.ledger[dn])
		}
	}
	return t, nil
}

// scrapeMetrics reads the server's own group-commit counters.
func scrapeMetrics(t *trialResult, c *loadgen.Client) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range t.expectOK(c, "METRICS").Lines {
		rest, ok := strings.CutPrefix(l, "group-commit: ")
		if !ok {
			continue
		}
		for _, kv := range strings.Fields(rest) {
			k, v, _ := strings.Cut(kv, "=")
			out[k], _ = strconv.ParseFloat(v, 64)
		}
	}
	return out
}

// share is the mix's parts per thousand of one kind.
func (m mix) share(k opKind) int {
	switch k {
	case kGet:
		return m.get
	case kSearch:
		return m.search
	}
	return m.add + m.addUnit + m.move + m.del + m.illegal
}
