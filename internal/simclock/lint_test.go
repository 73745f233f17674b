package simclock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallClockAllowed lists, per non-test file under internal/ (outside
// this package), how many direct wall-clock references it may hold and
// why each is not a case for the injected clock. Engine code reads time
// through a WallClock so that flsim's virtual clock can make every
// schedule reproducible; a new entry here needs a reason as good as
// these.
var wallClockAllowed = map[string]struct {
	uses int
	why  string
}{
	"journal/journal.go":   {4, "append and fsync latency: real disk I/O, measured on the real clock whatever the session clock is"},
	"secagg/masked_sum.go": {2, "mask keystream expansion latency: real CPU work, never fed to the trace sink"},
	"fl/recover.go":        {2, "journal replay latency: real I/O plus model reconstruction"},
	"fl/transport.go":      {2, "TCP read/write deadlines: the kernel's socket timers run on the real clock"},
	"fl/retry.go":          {2, "client reconnect: default jitter seed, and the default of the injectable Sleep seam"},
}

// wallClockFuncs are the package time functions that read or wait on
// the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "After": true, "Sleep": true, "Tick": true, "NewTimer": true,
}

// TestNoWallClockInEngineCode fails on any reference to a wall-clock
// function of package time in non-test code under internal/, outside
// this package and the allow-list above — and on an allow-list entry
// whose file no longer uses it in full, so the list stays exact.
func TestNoWallClockInEngineCode(t *testing.T) {
	found := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("..", "simclock") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The local name package time is imported under, if it is.
		timeName := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		if timeName == "" {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, ".."+string(filepath.Separator)))
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName && wallClockFuncs[sel.Sel.Name] {
				found[rel]++
				if found[rel] > wallClockAllowed[rel].uses {
					t.Errorf("%s: %s.%s reads the wall clock; take a simclock.WallClock instead (or allow-list it here with a reason)",
						fset.Position(sel.Pos()), timeName, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rel, allowed := range wallClockAllowed {
		if found[rel] < allowed.uses {
			t.Errorf("%s holds %d wall-clock references, the allow-list grants %d (%s): tighten the entry", rel, found[rel], allowed.uses, allowed.why)
		}
	}
}
