package boundschema_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers of internal/ that stay
// exported although no non-test Go outside their package uses them. Keys
// are "pkg.Name" or "pkg.Type.Method", pkg relative to internal/. Only two
// kinds of name belong here, and each entry says which and where it is
// used: names bench/ compiles against (its non-test files count as users,
// so only names its tests alone use would need an entry), and test-harness
// names that other packages' tests use. TestNoDeadExports fails on an
// entry that is live or no longer exists.
var exportAllowlist = map[string]string{
	"core.DiffEngines":         "harness: the convergence oracle's engine agreement in internal/loadgen/{oracle,diff}_test.go",
	"core.NaiveStructureCheck": "harness: the quadratic reference engine; bench_test.go's BenchmarkStructureNaive times it as E4's baseline",

	"netfault.Fault":           "harness: the type New returns",
	"netfault.New":             "harness: internal/server/partitionmatrix_test.go",
	"netfault.Point":           "harness: internal/server/partitionmatrix_test.go",
	"netfault.Kind":            "harness: internal/server/partitionmatrix_test.go",
	"netfault.Drop":            "harness: internal/server/partitionmatrix_test.go",
	"netfault.Delay":           "harness: internal/server/partitionmatrix_test.go",
	"netfault.Dup":             "harness: internal/server/partitionmatrix_test.go",
	"netfault.CutInbound":      "harness: internal/server/partitionmatrix_test.go",
	"netfault.CutOutbound":     "harness: internal/server/partitionmatrix_test.go",
	"netfault.Partition":       "harness: internal/server/partitionmatrix_test.go",
	"netfault.SlowReader":      "harness: internal/server/partitionmatrix_test.go",
	"netfault.Fault.SetScript": "harness: internal/server/partitionmatrix_test.go",
	"netfault.Fault.OpCount":   "harness: internal/server/partitionmatrix_test.go",
	"netfault.Fault.Heal":      "harness: internal/server/partitionmatrix_test.go",
	"netfault.Fault.Dialer":    "harness: internal/server/partitionmatrix_test.go",
	"netfault.Fault.Listener":  "harness: internal/server/partitionmatrix_test.go",

	"proto.ReadReply": "harness: the test client's reply reader in internal/server/{server,groupcommit,errgrammar}_test.go",
	"proto.Conn.Send": "harness: pipelined requests in internal/shard/errgrammar_test.go",
	"proto.Conn.Read": "harness: pipelined replies in internal/shard/{errgrammar,sharddiff}_test.go",

	"server.Server.ReplicaSeqs":           "harness: a node's committed sequence in internal/loadgen/oracle_test.go",
	"server.Server.DisconnectReplication": "harness: drops replication links under load in internal/loadgen/chaos_test.go",
	"server.Server.ListenRepl":            "harness: gives the promoted replica a replication listener in internal/loadgen/chaos_test.go",

	"vfs.FaultKind":       "harness: internal/loadgen/chaos_test.go",
	"vfs.FaultPoint":      "harness: internal/loadgen/chaos_test.go, internal/server/{recover,repl_integration,crashmatrix}_test.go",
	"vfs.FaultCrash":      "harness: internal/loadgen/chaos_test.go, internal/server/{recover,repl_integration,crashmatrix}_test.go",
	"vfs.FaultBitFlip":    "harness: internal/loadgen/chaos_test.go, internal/server/recover_test.go",
	"vfs.FaultSyncErr":    "harness: internal/loadgen/chaos_test.go, internal/server/recover_test.go",
	"vfs.FaultTornWrite":  "harness: internal/loadgen/chaos_test.go, internal/server/recover_test.go",
	"vfs.FaultTruncErr":   "harness: internal/server/recover_test.go",
	"vfs.Fault.SetScript": "harness: internal/loadgen/chaos_test.go, internal/server/{recover,repl_integration,crashmatrix,partitionmatrix}_test.go",
	"vfs.Fault.OpCount":   "harness: internal/loadgen/chaos_test.go, internal/server/{recover,repl_integration,crashmatrix,partitionmatrix}_test.go",
	"vfs.Fault.Crashed":   "harness: internal/server/repl_integration_test.go",
	"vfs.Fault.WriteFile": "harness: seeds journals in internal/server/{replay,recover}_test.go",

	"workload.HardCase":            "harness: the type HardCases returns",
	"workload.HardCases":           "harness: generator for internal/core/{closure,difforacle}_test.go",
	"workload.ContradictorySchema": "harness: generator for internal/core/closure_test.go",
	"workload.CyclicSchema":        "harness: generator for internal/core/closure_test.go and bench_test.go",
	"workload.RandomInstance":      "harness: generator for internal/core/difforacle_test.go",
	"workload.UpdateStream":        "harness: generator for bench_test.go",
}

// TestNoDeadExports type-checks every non-test package of the module, and
// bench/'s, and fails on each exported identifier of internal/ that is not
// live and not on exportAllowlist. Struct fields are not counted. A name is
// live if
//   - non-test Go outside its package uses it;
//   - it is a method of a type the root package aliases (library API);
//   - it is a method that implements an interface method that is
//     declared outside internal/ or in an anonymous interface, that is
//     live, or that its own package calls on an implementation from
//     another package (which keeps that interface method exported too);
//   - or it is a type reachable from a live name: a live function's
//     signature, a live variable's or constant's type, a live type's
//     underlying type or exported fields.
//
// A dead name that its own package uses is unexported; one that nothing
// uses is deleted; one that only its package's external tests use gets an
// export_test.go alias.
func TestNoDeadExports(t *testing.T) {
	s := newExportScan(t)
	dead := map[string]bool{}
	for key, obj := range s.exported {
		if !s.live[obj] {
			dead[key] = true
		}
	}
	var finds []string
	for key := range dead {
		if _, ok := exportAllowlist[key]; ok {
			continue
		}
		hint := "nothing uses it: delete it"
		if s.usedInPkg[s.exported[key]] {
			hint = "its own package uses it: unexport it"
		}
		finds = append(finds, fmt.Sprintf("%s (%s)", key, hint))
	}
	for key := range exportAllowlist {
		switch _, ok := s.exported[key]; {
		case !ok:
			finds = append(finds, fmt.Sprintf("%s: allowlisted but no longer exists", key))
		case !dead[key]:
			finds = append(finds, fmt.Sprintf("%s: allowlisted but live", key))
		}
	}
	if len(finds) > 0 {
		sort.Strings(finds)
		t.Errorf("%d of %d exported identifiers in internal/ are dead or stale on exportAllowlist:\n  %s",
			len(finds), len(s.exported), strings.Join(finds, "\n  "))
	}
	t.Logf("%d exported identifiers in internal/, %d allowlisted", len(s.exported), len(exportAllowlist))
}

// exportScan is a source importer: module packages are type-checked with
// their function bodies, so their uses are recorded; standard-library
// packages only for their declarations.
type exportScan struct {
	fset     *token.FileSet
	ctxt     build.Context
	module   map[string]string         // import path -> directory
	pkgs     map[string]*types.Package // by import path
	checked  []*types.Package          // module packages, in check order
	infos    map[*types.Package]*types.Info
	exported map[string]types.Object // internal/ exported identifiers by key

	live      map[types.Object]bool
	usedInPkg map[types.Object]bool
}

func newExportScan(t *testing.T) *exportScan {
	s := &exportScan{
		fset:      token.NewFileSet(),
		ctxt:      build.Default,
		module:    map[string]string{},
		pkgs:      map[string]*types.Package{},
		infos:     map[*types.Package]*types.Info{},
		exported:  map[string]types.Object{},
		live:      map[types.Object]bool{},
		usedInPkg: map[types.Object]bool{},
	}
	s.ctxt.CgoEnabled = false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ip := "boundschema"
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		s.module[ip] = path // bench/, a module of its own, is "boundschema/bench"
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(s.module))
	for ip := range s.module {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		var noGo *build.NoGoError
		if _, err := s.Import(ip); err != nil && !errors.As(err, &noGo) {
			t.Fatal(err)
		}
	}
	s.collect()
	s.markLive()
	return s
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	if dir, ok := s.module[path]; ok {
		return s.check(path, dir, true)
	}
	dir := filepath.Join(s.ctxt.GOROOT, "src", path)
	if _, err := os.Stat(dir); err != nil {
		path = "vendor/" + path // the standard library's vendored golang.org/x packages
		if p, ok := s.pkgs[path]; ok {
			return p, nil
		}
		dir = filepath.Join(s.ctxt.GOROOT, "src", path)
	}
	return s.check(path, dir, false)
}

// check parses the non-test Go files of dir that the build context selects
// and type-checks them as package path.
func (s *exportScan) check(path, dir string, bodies bool) (*types.Package, error) {
	bp, err := s.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s, IgnoreFuncBodies: !bodies}
	var info *types.Info
	if bodies {
		info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	} else {
		conf.Error = func(error) {} // declarations are all the scan needs
	}
	pkg, err := conf.Check(path, s.fset, files, info)
	if bodies && err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	if bodies {
		s.checked = append(s.checked, pkg)
		s.infos[pkg] = info
	}
	return pkg, nil
}

// collect lists the exported package-level names of internal/ and the
// exported methods of its exported types.
func (s *exportScan) collect() {
	for _, pkg := range s.checked {
		rel, ok := strings.CutPrefix(pkg.Path(), "boundschema/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			s.exported[rel+"."+name] = obj
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					s.exported[rel+"."+name+"."+m.Name()] = m
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						s.exported[rel+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markLive computes the live set to a fixpoint.
func (s *exportScan) markLive() {
	var work []types.Object
	mark := func(obj types.Object) {
		if obj != nil && obj.Pkg() != nil && s.module[obj.Pkg().Path()] != "" && !s.live[obj] {
			s.live[obj] = true
			work = append(work, obj)
		}
	}
	// Uses from outside the declaring package, and from inside it.
	var ifaces []*types.Interface // anonymous and non-internal interfaces: their methods are used
	for _, pkg := range s.checked {
		info := s.infos[pkg]
		for _, obj := range info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil {
				continue
			}
			if obj.Pkg() == pkg {
				s.usedInPkg[obj] = true
			} else {
				mark(obj)
			}
		}
		for _, tv := range info.Types {
			if iface, ok := tv.Type.(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
	}
	// Methods of the types the root package aliases.
	for _, name := range s.pkgs["boundschema"].Scope().Names() {
		if tn, ok := s.pkgs["boundschema"].Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				mark(ms.At(i).Obj())
			}
		}
	}
	// Interfaces declared outside internal/, standard library included.
	var internalIfaces []*types.Named
	for path, pkg := range s.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 {
				continue
			}
			if strings.HasPrefix(path, "boundschema/internal/") {
				internalIfaces = append(internalIfaces, tn.Type().(*types.Named))
			} else {
				ifaces = append(ifaces, iface)
			}
		}
	}
	// The module's concrete named types, whose methods may implement them.
	var concrete, exportedConcrete []*types.Named
	for _, pkg := range s.checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				concrete = append(concrete, tn.Type().(*types.Named))
				if tn.Exported() {
					exportedConcrete = append(exportedConcrete, tn.Type().(*types.Named))
				}
			}
		}
	}
	implementing := func(iface *types.Interface, concrete []*types.Named, called func(m *types.Func, impl types.Object) bool) {
		for _, n := range concrete {
			var t types.Type = n
			if !types.Implements(t, iface) {
				if t = types.NewPointer(n); !types.Implements(t, iface) {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); called == nil || called(m, obj) {
					mark(obj)
				}
			}
		}
	}
	for _, iface := range ifaces {
		implementing(iface, exportedConcrete, nil)
	}

	// Propagate: types reachable from live names, and the methods that
	// implement live methods of internal interfaces.
	seenType := map[types.Type]bool{}
	var reach func(types.Type)
	reach = func(t types.Type) {
		if t == nil || seenType[t] {
			return
		}
		seenType[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i))
			}
		case *types.Alias:
			mark(t.Obj())
			reach(types.Unalias(t))
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Chan:
			reach(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					reach(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					reach(f.Type())
				}
			}
		}
	}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			switch obj := obj.(type) {
			case *types.TypeName:
				reach(obj.Type().Underlying())
			case *types.Func:
				reach(obj.Type())
			case *types.Var, *types.Const:
				reach(obj.Type())
			}
		}
		before := len(s.live)
		for _, n := range internalIfaces {
			// A call through the interface in its own package uses the
			// methods of implementations in other packages, and they keep
			// the interface method exported.
			implementing(n.Underlying().(*types.Interface), concrete, func(m *types.Func, impl types.Object) bool {
				if s.usedInPkg[m] && impl.Pkg() != m.Pkg() {
					mark(m)
				}
				return s.live[m]
			})
		}
		if len(s.live) == before {
			return
		}
	}
}
