package fl

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// foldPath names the functions every FedAvg fold runs through, as go
// tool objdump names them after "internal/": the view fold, the q8 view
// decode (decodeQ8 inlines into it), the model update and the update
// norm applyMean inlines.
var foldPath = []string{
	"fl.(*Aggregator).Accumulate",
	"fl.(*Server).applyMean",
	"tensor.AxPy",
	"wire.(*View).Decode",
}

// fusedOp matches arm64's fused multiply-add instructions.
var fusedOp = regexp.MustCompile(`\bF(N?)M(ADD|SUB)[DS]\b`)

// TestFoldPathHasNoFusedMultiplyAdd: the Go spec lets a compiler fuse
// x*y + z into one rounding, and arm64's does — the paper's devices are
// Cortex-A53s. The fold path rounds every product first (float64(w*x),
// the spec's barrier, a no-op on amd64), so FedAvg stays bit-identical
// across architectures. The test cross-builds this package's test
// binary for arm64 and fails on any fused instruction go tool objdump
// finds in the fold path, or on a fold-path function it cannot find.
func TestFoldPathHasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds the package for arm64")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := filepath.Join(t.TempDir(), "fl.arm64.test")
	build := exec.Command(goTool, "test", "-c", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("cross-building for arm64: %v\n%s", err, out)
	}
	quoted := make([]string, len(foldPath))
	for i, fn := range foldPath {
		quoted[i] = regexp.QuoteMeta(fn)
	}
	out, err := exec.Command(goTool, "tool", "objdump", "-s", `/internal/(`+strings.Join(quoted, "|")+`)$`, bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}
	seen := map[string]bool{}
	fn := ""
	for _, line := range strings.Split(string(out), "\n") {
		if sym, ok := strings.CutPrefix(line, "TEXT "); ok {
			sym, _, _ = strings.Cut(sym, "(SB)")
			_, fn, _ = strings.Cut(sym, "/internal/")
			seen[fn] = true
		} else if op := fusedOp.FindString(line); op != "" {
			t.Errorf("%s: %s at %s", fn, op, strings.Fields(line)[0])
		}
	}
	for _, fn := range foldPath {
		if !seen[fn] {
			t.Errorf("objdump found no %s: the guard would pass without looking", fn)
		}
	}
}
