package boundschema_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"boundschema/internal/proto"
)

// The CLI integration suite builds the real binaries once and drives them
// over the testdata corpus, covering the flag parsing and I/O glue the
// unit tests cannot reach.

var cliDir string

func buildCLIs(t *testing.T) string {
	t.Helper()
	if cliDir != "" {
		return cliDir
	}
	dir, err := os.MkdirTemp("", "boundschema-cli")
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"bschema", "bsgen", "bsd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	cliDir = dir
	return dir
}

func runCLI(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLICheckLegalAndIllegal(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	out, err := runCLI(t, "bschema", "check",
		"-schema", "testdata/whitepages.bs", "-instance", "testdata/figure1.ldif")
	if err != nil || !strings.Contains(out, "legal") {
		t.Fatalf("check legal: %v\n%s", err, out)
	}
	out, err = runCLI(t, "bschema", "check",
		"-schema", "testdata/whitepages.bs", "-instance", "testdata/figure1-broken.ldif")
	if err == nil {
		t.Fatalf("broken instance exited zero:\n%s", out)
	}
	if !strings.Contains(out, "violation") {
		t.Fatalf("missing violation report:\n%s", out)
	}
}

func TestCLIConsistentAndWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	witness := filepath.Join(t.TempDir(), "w.ldif")
	out, err := runCLI(t, "bschema", "consistent",
		"-schema", "testdata/whitepages.bs", "-witness", witness)
	if err != nil || !strings.Contains(out, "consistent=true") {
		t.Fatalf("consistent: %v\n%s", err, out)
	}
	// The witness must itself pass check.
	out, err = runCLI(t, "bschema", "check",
		"-schema", "testdata/whitepages.bs", "-instance", witness)
	if err != nil {
		t.Fatalf("witness check: %v\n%s", err, out)
	}
	// The cycle schema must fail with an explanation.
	out, err = runCLI(t, "bschema", "consistent",
		"-schema", "testdata/cycle.bs", "-explain")
	if err == nil {
		t.Fatalf("inconsistent schema exited zero:\n%s", out)
	}
	if !strings.Contains(out, "∅⇓") {
		t.Fatalf("missing derivation:\n%s", out)
	}
}

func TestCLIApplyAndPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	tmp := t.TempDir()
	corpus := filepath.Join(tmp, "corpus.ldif")
	out, err := runCLI(t, "bsgen", "corpus", "-n", "300")
	if err != nil {
		t.Fatalf("bsgen corpus: %v", err)
	}
	if err := os.WriteFile(corpus, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	changes := filepath.Join(tmp, "changes.ldif")
	out, err = runCLI(t, "bsgen", "updates", "-n", "8", "-corpus", corpus)
	if err != nil {
		t.Fatalf("bsgen updates: %v", err)
	}
	if err := os.WriteFile(changes, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	updated := filepath.Join(tmp, "updated.ldif")
	out, err = runCLI(t, "bschema", "apply",
		"-schema", "testdata/whitepages.bs", "-instance", corpus,
		"-changes", changes, "-o", updated)
	if err != nil {
		t.Fatalf("apply: %v\n%s", err, out)
	}
	out, err = runCLI(t, "bschema", "check",
		"-schema", "testdata/whitepages.bs", "-instance", updated)
	if err != nil {
		t.Fatalf("updated corpus illegal: %v\n%s", err, out)
	}
	// Bad changes are rejected with nonzero exit.
	out, err = runCLI(t, "bschema", "apply",
		"-schema", "testdata/whitepages.bs", "-instance", "testdata/figure1.ldif",
		"-changes", "testdata/changes-bad.ldif")
	if err == nil {
		t.Fatalf("bad changes exited zero:\n%s", out)
	}
	if !strings.Contains(out, "rejected") {
		t.Fatalf("missing rejection message:\n%s", out)
	}
}

// TestCLIApplyRefusesDuplicateKey: bschema apply enforces the netpolicy
// schema's ipAddress key (Section 6.1) with no flag.
func TestCLIApplyRefusesDuplicateKey(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	tmp := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out, err := runCLI(t, "bsgen", "schema", "-scenario", "netpolicy")
	if err != nil {
		t.Fatalf("bsgen schema: %v\n%s", err, out)
	}
	schema := write("netpolicy.bs", out)
	out, err = runCLI(t, "bsgen", "corpus", "-scenario", "netpolicy", "-n", "200", "-seed", "1")
	if err != nil {
		t.Fatalf("bsgen corpus: %v\n%s", err, out)
	}
	corpus := write("netpolicy.ldif", out)
	changes := write("dup.ldif", `dn: cn=dup,ou=lab net 0,o=backbone
changetype: add
objectClass: host
objectClass: netElement
objectClass: top
ipAddress: 10.0.0.0
`)
	out, err = runCLI(t, "bschema", "apply", "-schema", schema, "-instance", corpus, "-changes", changes)
	if err == nil {
		t.Fatalf("duplicate key applied:\n%s", out)
	}
	want := `key ipAddress="10.0.0.0" already used by cn=gw0,ou=lab net 0,o=backbone`
	if !strings.Contains(out, "rejected") || !strings.Contains(out, want) {
		t.Fatalf("missing duplicate-key refusal %q:\n%s", want, out)
	}
}

func TestCLIQueryAndSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	out, err := runCLI(t, "bschema", "query",
		"-instance", "testdata/figure1.ldif", "-explain",
		"-q", "(desc (select (objectClass=orgGroup)) (select (objectClass=person)))")
	if err != nil {
		t.Fatalf("query: %v\n%s", err, out)
	}
	if !strings.Contains(out, "o=att") || !strings.Contains(out, "total operand work") {
		t.Fatalf("query output:\n%s", out)
	}
	out, err = runCLI(t, "bschema", "search",
		"-instance", "testdata/figure1.ldif",
		"-filter", "(&(objectClass=person)(mail=*))")
	if err != nil {
		t.Fatalf("search: %v\n%s", err, out)
	}
	if !strings.Contains(out, "uid=laks") {
		t.Fatalf("search output:\n%s", out)
	}
}

// TestCLIElementsAndLint: bschema elements prints the whitepages cover,
// orgUnit⇓ plus the four relationships, then the two required classes it
// implies, each with its derivation; bschema lint reports exactly those
// two and exits 1.
func TestCLIElementsAndLint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	out, err := runCLI(t, "bschema", "elements", "-schema", "testdata/whitepages.bs")
	if err != nil {
		t.Fatalf("elements: %v\n%s", err, out)
	}
	_, cover, _ := strings.Cut(out, "cover (")
	for _, want := range []string{
		"5 of 7 structure elements):\n  orgUnit⇓\n  orgGroup →de person\n  orgUnit →pa orgGroup\n" +
			"  person →an organization\n  person ⇥ch top\ndropped, implied by the cover:\n",
		"\n  organization⇓\n    organization⇓ [N]\n",
		"\n  person⇓\n    person⇓ [N]\n",
	} {
		if !strings.Contains(cover, want) {
			t.Errorf("elements output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(cover, "orgUnit⇓ [given]"); n != 2 {
		t.Errorf("want each dropped element derived from orgUnit⇓, got %d citations:\n%s", n, cover)
	}

	out, err = runCLI(t, "bschema", "lint", "-schema", "testdata/whitepages.bs")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("lint: %v, want exit 1:\n%s", err, out)
	}
	var findings []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "redundant-element" {
			findings = append(findings, f[1])
		}
	}
	if strings.Join(findings, " ") != "organization⇓ person⇓" || !strings.Contains(out, "2 finding(s)") {
		t.Errorf("lint findings %v, want exactly organization⇓ and person⇓:\n%s", findings, out)
	}
}

func TestCLIFormatRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	out, err := runCLI(t, "bschema", "format", "-schema", "testdata/whitepages.bs")
	if err != nil {
		t.Fatalf("format: %v\n%s", err, out)
	}
	if !strings.Contains(out, "schema whitepages {") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestCLIServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := buildCLIs(t)
	cmd := exec.Command(filepath.Join(dir, "bsd"),
		"-schema", "testdata/whitepages.bs",
		"-instance", "testdata/figure1.ldif",
		"-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	// The daemon prints "bsd: serving ... on ADDR".
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, " on "); i >= 0 {
			addr = strings.TrimSpace(line[i+4:])
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen address announced")
	}
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("SEARCH (objectClass=orgUnit)\nQUIT\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		lines = append(lines, strings.TrimSpace(line))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ou=attLabs,o=att") || !strings.Contains(joined, "OK") {
		t.Fatalf("server dialogue:\n%s", joined)
	}
}

// TestCLIServerBootRefusals pins bsd's refusals of flag combinations it
// cannot boot: each exits 2 with one stderr line, before binding or
// creating anything.
func TestCLIServerBootRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "j.ldif")
	base := []string{"-schema", "testdata/whitepages.bs", "-instance", "testdata/figure1.ldif", "-addr", "127.0.0.1:0"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"repl-addr without journal", []string{"-repl-addr", "127.0.0.1:0"},
			"bsd: replication requires -journal"},
		{"replica-of without journal", []string{"-replica-of", "127.0.0.1:1"},
			"bsd: replication requires -journal"},
		{"repl-addr and replica-of", []string{"-journal", journal, "-repl-addr", "127.0.0.1:0", "-replica-of", "127.0.0.1:1"},
			"bsd: -repl-addr and -replica-of are mutually exclusive"},
		{"bogus repl-mode", []string{"-repl-mode", "bogus"},
			`bsd: unknown -repl-mode "bogus" (want async or semisync)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(buildCLIs(t), "bsd"), append(base, tc.args...)...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("bsd %v: err = %v, want exit status 2", tc.args, err)
			}
			if got := strings.TrimSpace(stderr.String()); got != tc.want {
				t.Errorf("stderr = %q, want %q", got, tc.want)
			}
			if _, err := os.Stat(journal); err == nil {
				t.Errorf("a refused boot created %s", journal)
			}
		})
	}
}

// startBsd runs bsd with args and returns the addresses its stdout
// announces (the text after " on " on each line up to the serving
// line), keyed by the line's leading words, and the metrics URL under
// "metrics".
func startBsd(t *testing.T, args ...string) map[string]string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "bsd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrs := map[string]string{}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, " on "); i >= 0 {
			addrs[strings.Fields(line)[1]] = line[i+len(" on "):]
		} else if url, ok := strings.CutPrefix(line, "bsd: metrics at "); ok {
			addrs["metrics"] = url
		}
		if strings.Contains(line, "entries) on ") {
			return addrs
		}
	}
	t.Fatalf("bsd %v never announced its listener (announced %v)", args, addrs)
	return nil
}

func dialProto(t *testing.T, addr string) *proto.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(20 * time.Second))
	t.Cleanup(func() { c.Close() })
	return proto.NewConn(c)
}

// TestCLIServerReplicationPair boots a primary bsd (-journal -repl-addr)
// and a replica bsd (-journal -replica-of -primary-client-addr): a
// COMMIT on the primary becomes readable on the replica, and a write on
// the replica is redirected to the primary's client address.
func TestCLIServerReplicationPair(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	base := []string{"-schema", "testdata/whitepages.bs", "-instance", "testdata/figure1.ldif", "-addr", "127.0.0.1:0"}
	primary := startBsd(t, append(base, "-journal", filepath.Join(dir, "p.ldif"), "-repl-addr", "127.0.0.1:0")...)
	if primary["shipping"] == "" || primary["serving"] == "" {
		t.Fatalf("primary announced %v, want shipping and serving addresses", primary)
	}
	replica := startBsd(t, append(base, "-journal", filepath.Join(dir, "r.ldif"),
		"-replica-of", primary["shipping"], "-primary-client-addr", primary["serving"])...)

	pc := dialProto(t, primary["serving"])
	const dn = "uid=pinned,ou=attLabs,o=att"
	if rep, err := pc.Txn([]string{"ADD " + dn, "objectClass: person", "objectClass: top", "name: pinned", ""}); err != nil || !rep.OK() {
		t.Fatalf("COMMIT on the primary: %+v, %v", rep, err)
	}

	rc := dialProto(t, replica["serving"])
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, err := rc.Do("GET " + dn)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never served %s: %+v", dn, rep)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep, err := rc.Txn([]string{"ADD uid=refused,ou=attLabs,o=att", "objectClass: person", "objectClass: top", "name: x", ""})
	if err != nil {
		t.Fatal(err)
	}
	if want := proto.Redirect + primary["serving"]; rep.Term != "ERR" || !strings.Contains(rep.Err, want) {
		t.Errorf("write on the replica = %+v, want an ERR naming %q", rep, want)
	}
}

// TestCLIServerMetricsEndpoint boots bsd with -metrics-addr on port 0:
// the announced URL is the bound one and serves the METRICS groups as
// expvar JSON under "bsd", a command's counters under command.<NAME>.
// A metrics address that cannot be bound refuses the boot.
func TestCLIServerMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	base := []string{"-schema", "testdata/whitepages.bs", "-instance", "testdata/figure1.ldif", "-addr", "127.0.0.1:0"}
	addrs := startBsd(t, append(base, "-metrics-addr", "127.0.0.1:0")...)
	if rep, err := dialProto(t, addrs["serving"]).Do("STAT"); err != nil || !rep.OK() {
		t.Fatalf("STAT: %+v, %v", rep, err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(addrs["metrics"])
	if err != nil {
		t.Fatalf("GET %q (announced %v): %v", addrs["metrics"], addrs, err)
	}
	defer resp.Body.Close()
	var vars struct {
		Bsd struct {
			Command map[string]struct{ Count int }
			Journal string
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if n := vars.Bsd.Command["STAT"].Count; n != 1 {
		t.Errorf("bsd.command.STAT.count = %d, want 1 (%+v)", n, vars.Bsd)
	}
	if vars.Bsd.Journal != "off" {
		t.Errorf("bsd.journal = %q on a journal-less bsd, want off", vars.Bsd.Journal)
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "bsd"), append(base, "-metrics-addr", taken.Addr().String())...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil || !strings.HasPrefix(stderr.String(), "bsd: metrics endpoint: ") {
		t.Errorf("bsd on a taken -metrics-addr: err = %v, stderr %q; want a refused boot", err, stderr.String())
	}
}
