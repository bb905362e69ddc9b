package icares

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the exported funcs, methods and struct fields that no
// non-test code reaches, each with the reason it stays. A reason starts
// with the kind of caller that holds it: an EXPERIMENTS.md row, the
// interface the method satisfies, the public icares facade, a cross-package
// test fixture, or an open ROADMAP item.
var reachAllow = map[string]string{
	"internal/faultplan.Plan.InstallBlackouts": "EXPERIMENTS.md: chaos-suite invariant 5, blackout windows queue a command on the uplink",
	"internal/faultplan.Transport.Stats":       "EXPERIMENTS.md: chaos-suite invariant 4, dropped > 0 and corrupted > 0",
	"internal/offload.Gateway.Restore":         "EXPERIMENTS.md: offload under chaos, crash-restart from the watermark snapshot loses nothing",
	"internal/offload.Gateway.Snapshot":        "EXPERIMENTS.md: offload under chaos, crash-restart from the watermark snapshot loses nothing",
	"internal/mission.Config.BLEDropProb":      "EXPERIMENTS.md: fault injection, 50 % BLE loss halves beacon observations; TestRunGoldenDigestFaults pins its lossy radios",
	"internal/mission.Config.Sub868DropProb":   "EXPERIMENTS.md: fault injection, the internal/mission failure tests; TestRunGoldenDigestFaults pins its lossy radios",
	"internal/mission.Config.CollectTruth":     "EXPERIMENTS.md: room detection, in-pipeline accuracy vs ground truth (TestTrackRecoversTruthRooms)",

	"internal/habitat.NewBuilder":          "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.AddRoom":     "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.AddDoor":     "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.PlaceBeacon": "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.Build":       "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/fleet.HabitatConfig.Faults":  "fixture: the chaos habitat whose live stream TestEngineStreamGolden pins, and the chaos member of the fleet isolation runs (DESIGN.md, fleet)",
	"internal/fleet.Config.QueueDepth":     "fixture: the fleet tests shrink the queue to reach ErrBusy (DESIGN.md, fleet backpressure)",
	"internal/fleet.Config.RequestTimeout": "fixture: the fleet tests shorten the deadline to reach ErrDeadline (DESIGN.md, fleet backpressure)",

	"internal/radio.NewChannelWithProfile":          "EXPERIMENTS.md: BenchmarkAblationShielding builds its free-space channel with it",
	"internal/sociometry.WithMinDwell":              "EXPERIMENTS.md: BenchmarkAblationDwellFilter builds its unfiltered pipeline with it",
	"internal/sociometry.Pipeline.MeetingDominance": "EXPERIMENTS.md: C's voice dominated during meetings",
	"internal/sociometry.WithLocWindow":             "ROADMAP: reports that explain themselves, soak gap; TestOutOfCoreSoak passes it until the default window fits its bound",
}

// reachReasonKinds are the accepted prefixes of a reachAllow reason.
var reachReasonKinds = []string{"EXPERIMENTS.md: ", "interface: ", "facade: ", "fixture: ", "ROADMAP: "}

// reachStdIfaces are the std interfaces through which std code calls a
// method it was handed, as "importpath.Name" ("error" is the predeclared
// one).
var reachStdIfaces = []string{
	"error", "fmt.Stringer", "io.Writer", "io.Reader", "io.Closer",
	"net/http.Handler", "net/http.ResponseWriter", "sort.Interface",
	"container/heap.Interface", "encoding/json.Marshaler", "flag.Value",
	"expvar.Var",
}

// reachability type-checks every non-test package under root from source,
// skipping testdata and hidden directories. Std packages come from
// importer.Default; root's own import paths map to directories by the
// module path in root/go.mod. It returns the exported funcs, methods and
// fields that no non-test code reaches and that allow does not list, and
// the allow entries that name no such declaration.
//
// A func or method is reached when a non-test file uses that very object
// outside the declaration itself (a method of a generic type through its
// origin), or when it implements a method of an interface, named or
// literal, written in a non-test file or listed in reachStdIfaces. An
// exported field of an exported package-level struct type is reached when
// non-test code writes it: a composite literal sets it by key or by
// position, or it is assigned, incremented or decremented, or has its
// address taken, other than through a value receiver (a write into the
// method's own copy, as in a withDefaults method). Keys are "dir.Func",
// "dir.Type.Method" or "dir.Type.Field", with dir relative to root and the
// root package written by its name.
func reachability(root string, allow map[string]string) (unreached, stale []string, err error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	s := &reachScan{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*reachPkg{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			s.module = strings.TrimSpace(m)
		}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		p := s.pkgs[rel]
		if p == nil {
			p = &reachPkg{dir: rel}
			if rel == "." {
				p.dir = f.Name.Name
			}
			s.pkgs[rel] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range s.pkgs {
		if err := s.check(p); err != nil {
			return nil, nil, err
		}
	}
	decls, reached, err := s.reached()
	if err != nil {
		return nil, nil, err
	}
	for key := range decls {
		if !reached[key] && allow[key] == "" {
			unreached = append(unreached, key)
		}
	}
	for key := range allow {
		if _, ok := decls[key]; !ok || reached[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale, nil
}

// reachScan holds root's parsed packages, keyed by slash-separated
// directory relative to root, and is the importer that type-checks them on
// demand.
type reachScan struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*reachPkg
}

// reachPkg is one package: dir is its key prefix, and pkg and info are set
// once it is type-checked.
type reachPkg struct {
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func (s *reachScan) Import(path string) (*types.Package, error) {
	rel := "."
	if path != s.module {
		var ok bool
		if rel, ok = strings.CutPrefix(path, s.module+"/"); !ok {
			return s.std.Import(path)
		}
	}
	p := s.pkgs[rel]
	if p == nil {
		return nil, fmt.Errorf("%s: no non-test Go files", path)
	}
	err := s.check(p)
	return p.pkg, err
}

// check type-checks p once.
func (s *reachScan) check(p *reachPkg) (err error) {
	if p.info != nil {
		return nil
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	p.pkg, err = (&types.Config{Importer: s}).Check(p.dir, s.fset, p.files, p.info)
	return err
}

// reached returns every exported func, method and field of root's
// packages by key, and the keys that non-test code reaches.
func (s *reachScan) reached() (decls map[string]types.Object, reached map[string]bool, err error) {
	type span struct{ pos, end token.Pos }
	decls = map[string]types.Object{}
	body := map[types.Object]span{} // func or method -> its declaration
	var ifaces []*types.Interface
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := p.info.Defs[fd.Name].(*types.Func)
					key := p.dir + "." + fn.Name()
					if named := recvNamed(fn); named != nil {
						key = p.dir + "." + named.Obj().Name() + "." + fn.Name()
					}
					decls[key] = fn
					body[fn] = span{fd.Pos(), fd.End()}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface := p.info.TypeOf(it).(*types.Interface); iface.IsMethodSet() && iface.NumMethods() > 0 {
						ifaces = append(ifaces, iface)
					}
				}
				return true
			})
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if fld := st.Field(i); fld.Exported() && !fld.Embedded() {
						decls[p.dir+"."+name+"."+fld.Name()] = fld
					}
				}
			}
		}
	}
	for _, name := range reachStdIfaces {
		obj := types.Universe.Lookup(name)
		if dot := strings.LastIndex(name, "."); dot >= 0 {
			pkg, err := s.std.Import(name[:dot])
			if err != nil {
				return nil, nil, err
			}
			obj = pkg.Scope().Lookup(name[dot+1:])
		}
		ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
	}

	reachedObj := map[types.Object]bool{}
	for _, p := range s.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if b, ok := body[fn]; ok && b.pos <= id.Pos() && id.Pos() < b.end {
				continue // a recursive call
			}
			reachedObj[fn] = true
		}
		for _, f := range p.files {
			markWrites(f, p.info, reachedObj)
		}
	}
	reached = map[string]bool{}
	for key, obj := range decls {
		reached[key] = reachedObj[obj] || implementsIface(obj, ifaces)
	}
	return decls, reached, nil
}

// markWrites marks every struct field that f writes. A write through a
// value receiver (c.F = v inside func (c T) m()) lands in the method's own
// copy, the way a withDefaults method fills defaults, so it does not count.
func markWrites(f *ast.File, info *types.Info, written map[types.Object]bool) {
	copies := map[types.Object]bool{} // the value receivers declared in f
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			if r := fd.Recv.List[0]; len(r.Names) == 1 {
				if _, ptr := r.Type.(*ast.StarExpr); !ptr {
					copies[info.Defs[r.Names[0]]] = true
				}
			}
		}
	}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && copies[info.Uses[id]] {
				return
			}
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					written[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// recvNamed returns the named receiver type of a method, or nil for a func.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// implementsIface reports whether obj is a method of a non-generic type
// that, by value or by pointer, implements an interface in ifaces with a
// method of obj's name.
func implementsIface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// TestReachability pins every exported func, method and struct field in the
// repository, cmd/, examples/ and bench/ included, to a non-test caller or
// writer, or to a reasoned reachAllow entry. A new unreached declaration
// fails it, and so does an entry that is now reached or gone.
func TestReachability(t *testing.T) {
	unreached, stale, err := reachability(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unreached {
		t.Errorf("%s: no non-test code calls it (a field: writes it); delete it, or add it to reachAllow with its reason", key)
	}
	for _, key := range stale {
		t.Errorf("reachAllow[%q] is stale: non-test code now reaches it, or it no longer exists", key)
	}
	for key, reason := range reachAllow {
		ok := false
		for _, kind := range reachReasonKinds {
			ok = ok || (strings.HasPrefix(reason, kind) && len(reason) > len(kind))
		}
		if !ok {
			t.Errorf("reachAllow[%q] = %q: a reason starts with one of %q and says more", key, reason, reachReasonKinds)
		}
	}
}

// TestReachabilityFixture checks the scanner on testdata/reachability, a
// small module outside the build, so its logic is tested apart from the
// repository's current state.
func TestReachabilityFixture(t *testing.T) {
	allow := map[string]string{
		"lib.Allowed":     "fixture: kept for the test",
		"lib.Used":        "fixture: stale, lib.Used is called from app",
		"lib.Gone":        "fixture: stale, no such func",
		"lib.Config.Size": "fixture: stale, app writes it",
	}
	unreached, stale, err := reachability(filepath.Join("testdata", "reachability"), allow)
	if err != nil {
		t.Fatal(err)
	}
	// app/app.go calls lib.Used, lib.Live.Name and lib.Box[int].Get, calls
	// lib.Square.Area only through the lib.Shape interface, writes
	// lib.Config.Size and reads lib.Config.Debug. lib.OnlyTested is called
	// and lib.Config.Debug written only from lib_test.go; lib.Recursive and
	// lib.Loop.Again call only themselves; lib.Dead.Name shares its name
	// with Live.Name but is never called. lib.Config.Level is written only
	// by the value-receiver WithDefaults, lib.Config.Retries by the
	// pointer-receiver Reset; app calls both.
	want := []string{"lib.Config.Debug", "lib.Config.Level", "lib.Dead.Name", "lib.Loop.Again", "lib.OnlyTested", "lib.Recursive"}
	if !reflect.DeepEqual(unreached, want) {
		t.Errorf("unreached = %q, want %q", unreached, want)
	}
	if want := []string{"lib.Config.Size", "lib.Gone", "lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}
