package icares

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the exported funcs and methods that no non-test file
// names, each with the reason it stays. A reason starts with the kind of
// caller that holds it: an EXPERIMENTS.md row, the interface the method
// satisfies, the public icares facade, a cross-package test fixture, or an
// open ROADMAP item.
var reachAllow = map[string]string{
	"icares.Mission.PipelineOver": "facade: analysis over any store.Viewer, such as an opened segment archive; the ArchivePipeline doc points users to it",

	"internal/faultplan.Plan.InstallBlackouts": "EXPERIMENTS.md: chaos-suite invariant 5, blackout windows queue a command on the uplink",
	"internal/faultplan.Plan.ReplayGate":       "EXPERIMENTS.md: chaos-suite invariant 5, the support replayer withholds what could not have arrived live",
	"internal/faultplan.Transport.Stats":       "EXPERIMENTS.md: chaos-suite invariant 4, dropped > 0 and corrupted > 0",
	"internal/support.Replayer.Withheld":       "EXPERIMENTS.md: chaos-suite invariant 5 counts the records the replay gate withheld",
	"internal/offload.Gateway.Restore":         "EXPERIMENTS.md: offload under chaos, crash-restart from the watermark snapshot loses nothing",

	"internal/habitat.NewBuilder":          "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.AddRoom":     "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.AddDoor":     "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.PlaceBeacon": "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/habitat.Builder.Build":       "fixture: custom floor plans for the DESIGN.md wall-prefilter and localization-kernel properties",
	"internal/record.NewLogWriter":         "fixture: writes the .icr badge logs that badgectl and the record tests read (DESIGN.md, .icr format)",

	"internal/radio.NewChannelWithProfile":          "EXPERIMENTS.md: BenchmarkAblationShielding builds its free-space channel with it",
	"internal/sociometry.WithMinDwell":              "EXPERIMENTS.md: BenchmarkAblationDwellFilter builds its unfiltered pipeline with it",
	"internal/sociometry.Pipeline.MeetingDominance": "EXPERIMENTS.md: C's voice dominated during meetings",
	"internal/sociometry.WithLocWindow":             "ROADMAP: reports that explain themselves, soak gap; TestOutOfCoreSoak passes it until the default window fits its bound",

	"internal/support.NewLedger":           "EXPERIMENTS.md: resource ledger",
	"internal/support.Ledger.Consume":      "EXPERIMENTS.md: resource ledger",
	"internal/support.Ledger.Resupply":     "EXPERIMENTS.md: resource ledger, re-arms after resupply",
	"internal/support.NewResourceWatch":    "EXPERIMENTS.md: resource ledger, shortage forecast",
	"internal/support.SuggestReschedule":   "EXPERIMENTS.md: rescheduling advisor",
	"internal/support.FatiguedFrom":        "EXPERIMENTS.md: rescheduling advisor, fatigue signals from the alert log",
	"internal/support.NewRenderer":         "EXPERIMENTS.md: ability-based rendering",
	"internal/support.Renderer.SetProfile": "EXPERIMENTS.md: ability-based rendering",
	"internal/support.Proposal.DecidedAt":  "EXPERIMENTS.md: consensus approvals, decided in one 40-min round trip",

	"internal/support.cursorHeap.Less": "interface: container/heap.Interface",
}

// reachReasonKinds are the accepted prefixes of a reachAllow reason.
var reachReasonKinds = []string{"EXPERIMENTS.md: ", "interface: ", "facade: ", "fixture: ", "ROADMAP: "}

// reachability scans every non-test .go file under root, skipping testdata
// and hidden directories. It returns the exported funcs and methods whose
// name no non-test file references outside the declaration itself and that
// allow does not list, and the allow entries that name no such export.
//
// The scan matches names, not types: a call to any method or func named M
// reaches every declaration named M, and a method called only through an
// interface looks unreached. Keys are "dir.Func" or "dir.Type.Method",
// with dir relative to root and the root package written by its name.
func reachability(root string, allow map[string]string) (unreached, stale []string, err error) {
	fset := token.NewFileSet()
	decls := map[string]string{} // key -> declared name
	refs := map[string]bool{}
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		if dir == "." {
			dir = f.Name.Name
		}
		for _, decl := range f.Decls {
			collectRefs(decl, refs)
			if fd, ok := decl.(*ast.FuncDecl); ok && ast.IsExported(fd.Name.Name) {
				decls[declKey(dir, fd)] = fd.Name.Name
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for key, name := range decls {
		if !refs[name] && allow[key] == "" {
			unreached = append(unreached, key)
		}
	}
	for key := range allow {
		if name, ok := decls[key]; !ok || refs[name] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale, nil
}

// collectRefs adds every exported identifier under decl to refs, except
// what refers to decl itself: a func's declared name, its bare name inside
// a func (a recursive call), and inside a method its name selected from the
// receiver.
func collectRefs(decl ast.Decl, refs map[string]bool) {
	fd, _ := decl.(*ast.FuncDecl)
	recv := ""
	if fd != nil && fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recv = fd.Recv.List[0].Names[0].Name
	}
	add := func(name string) {
		if ast.IsExported(name) {
			refs[name] = true
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(n.X, visit)
			if x, ok := n.X.(*ast.Ident); !ok || recv == "" || x.Name != recv || n.Sel.Name != fd.Name.Name {
				add(n.Sel.Name)
			}
			return false
		case *ast.Ident:
			if fd != nil && (n == fd.Name || (fd.Recv == nil && n.Name == fd.Name.Name)) {
				return false
			}
			add(n.Name)
		}
		return true
	}
	ast.Inspect(decl, visit)
}

// declKey names fd as "dir.Func" or "dir.Type.Method".
func declKey(dir string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return dir + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return dir + "." + recv + "." + fd.Name.Name
}

// TestReachability pins every exported func and method in the repository,
// cmd/, examples/ and bench/ included, to a non-test caller or to a reasoned
// reachAllow entry. A new unreached export fails it, and so does an entry
// that is now reached or gone.
func TestReachability(t *testing.T) {
	unreached, stale, err := reachability(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unreached {
		t.Errorf("%s: no non-test file calls it; delete it, or add it to reachAllow with its reason", key)
	}
	for _, key := range stale {
		t.Errorf("reachAllow[%q] is stale: a non-test file now calls it, or it no longer exists", key)
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
// small tree outside the build, so its logic is tested apart from the
// repository's current state.
func TestReachabilityFixture(t *testing.T) {
	allow := map[string]string{
		"lib.Allowed": "fixture: kept for the test",
		"lib.Used":    "fixture: stale, lib.Used is called from app",
		"lib.Gone":    "fixture: stale, no such func",
	}
	unreached, stale, err := reachability(filepath.Join("testdata", "reachability"), allow)
	if err != nil {
		t.Fatal(err)
	}
	// lib.Used and lib.Live.Name are called from app/app.go. lib.OnlyTested
	// is called only from lib_test.go, and lib.Recursive and lib.Loop.Again
	// only from themselves. lib.Dead.Name has no caller either, but the scan
	// matches names, so Live.Name's call hides the dead one.
	if want := []string{"lib.Loop.Again", "lib.OnlyTested", "lib.Recursive"}; !reflect.DeepEqual(unreached, want) {
		t.Errorf("unreached = %q, want %q", unreached, want)
	}
	if want := []string{"lib.Gone", "lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}
