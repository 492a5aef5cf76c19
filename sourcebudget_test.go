package boundschema_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sourceBudget is the committed count of non-test Go lines per package
// directory of the main module. A change that grows or shrinks a package
// edits this table, so its size shows in the diff; TestSourceBudget prints
// the corrected table when the tree and the table disagree.
var sourceBudget = map[string]int{
	".":                       180,
	"cmd/bschema":             539,
	"cmd/bsd":                 182,
	"cmd/bsgen":               171,
	"cmd/bsrouter":            75,
	"examples/netpolicy":      147,
	"examples/quickstart":     68,
	"examples/semistructured": 63,
	"examples/whitepages":     91,
	"internal/core":           4534,
	"internal/dirtree":        2088,
	"internal/filter":         491,
	"internal/hquery":         1307,
	"internal/ldif":           409,
	"internal/loadgen":        1021,
	"internal/netfault":       428,
	"internal/proto":          466,
	"internal/repl":           864,
	"internal/schemadsl":      611,
	"internal/semistruct":     298,
	"internal/server":         3191,
	"internal/shard":          1640,
	"internal/txn":            749,
	"internal/vfs":            625,
	"internal/workload":       697,
}

// TestSourceBudget counts the newline-terminated lines of every non-test
// .go file of the main module, per directory, and compares them with
// sourceBudget. Directories the go tool ignores (testdata, names starting
// with "." or "_") and nested modules (bench/) are not counted.
func TestSourceBudget(t *testing.T) {
	got := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != "." {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(src, []byte{'\n'})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	dirs := map[string]bool{}
	for dir := range got {
		dirs[dir] = true
	}
	for dir := range sourceBudget {
		dirs[dir] = true
	}
	var diffs []string
	for dir := range dirs {
		if got[dir] != sourceBudget[dir] {
			diffs = append(diffs, fmt.Sprintf("%s: table %d, tree %d", dir, sourceBudget[dir], got[dir]))
		}
	}
	if len(diffs) == 0 {
		return
	}
	sort.Strings(diffs)
	t.Errorf("non-test Go lines differ from sourceBudget:\n  %s\ncorrected table (total %d):\n%s",
		strings.Join(diffs, "\n  "), total(got), renderBudget(got))
}

func total(budget map[string]int) int {
	n := 0
	for _, lines := range budget {
		n += lines
	}
	return n
}

// renderBudget prints a budget as the Go map literal sourceBudget uses.
func renderBudget(budget map[string]int) string {
	dirs := make([]string, 0, len(budget))
	for dir := range budget {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var b strings.Builder
	b.WriteString("var sourceBudget = map[string]int{\n")
	for _, dir := range dirs {
		fmt.Fprintf(&b, "\t%q: %d,\n", dir, budget[dir])
	}
	b.WriteString("}\n")
	return b.String()
}
