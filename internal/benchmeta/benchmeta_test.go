package benchmeta

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestCurrent(t *testing.T) {
	h := Current()
	if h.CPUs < 1 || h.GOMAXPROCS < 1 {
		t.Fatalf("Current() = %+v, want cpus and gomaxprocs ≥ 1", h)
	}
	if h.Go != runtime.Version() || h.OS != runtime.GOOS || h.Arch != runtime.GOARCH {
		t.Errorf("toolchain fields = %q/%q/%q", h.Go, h.OS, h.Arch)
	}
	if runtime.GOARCH == "amd64" && !strings.HasPrefix(h.GOAMD64, "v") {
		t.Errorf("GOAMD64 = %q, want v1..v4 on amd64", h.GOAMD64)
	}
}

// TestNoLegacyBenchArtifacts keeps perfbench the only source of
// performance evidence: no BENCH_*.json artifact may sit at the repo
// root, and the README may not cite one, the retired fpbench harness or
// the retired -splice-max-cone knob.
func TestNoLegacyBenchArtifacts(t *testing.T) {
	root := filepath.Join("..", "..")
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		t.Errorf("legacy artifact %s: record the number with perfbench instead", filepath.Base(p))
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(readme), "\n") {
		for _, bad := range []string{"BENCH_", "cmd/fpbench", "-splice-max-cone"} {
			if strings.Contains(line, bad) {
				t.Errorf("README.md:%d cites %q: %s", i+1, bad, line)
			}
		}
	}
}
