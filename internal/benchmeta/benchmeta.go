// Package benchmeta captures the host facts that qualify benchmark
// numbers. perfbench stamps its report's host line with Current(), so a
// reader can tell which CPU count and toolchain a measurement came from.
// perfbench is the repo's only benchmark harness; TestNoLegacyBenchArtifacts
// keeps the retired BENCH_*.json artifacts and their citations out.
package benchmeta

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Host describes the machine and toolchain a benchmark was recorded on.
// CPUs and GOMAXPROCS are what make parallel-speedup claims
// interpretable: on a 1-CPU host, level-parallel ratios measure overhead,
// not speedup.
type Host struct {
	// CPU is the processor model string (best-effort; empty when the
	// platform does not expose one).
	CPU string `json:"cpu,omitempty"`
	// CPUs is runtime.NumCPU() — the schedulable processor count.
	CPUs int `json:"cpus"`
	// GOMAXPROCS is the worker ceiling the process actually ran with.
	GOMAXPROCS int `json:"gomaxprocs"`
	// GOAMD64 is the amd64 ISA level the binary was compiled for ("v1"
	// when unset; empty on other architectures).
	GOAMD64 string `json:"goamd64,omitempty"`
	// Go is the toolchain version (runtime.Version()).
	Go string `json:"go"`
	// OS and Arch are GOOS/GOARCH.
	OS   string `json:"os"`
	Arch string `json:"arch"`
}

// Current captures the running process's host metadata.
func Current() Host {
	h := Host{
		CPU:        cpuModel(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    goamd64(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	return h
}

// goamd64 reads the compiled-in GOAMD64 level from build info, defaulting
// to "v1" (the toolchain default) when the setting is absent — which is
// exactly what an unset environment compiles to on amd64.
func goamd64() string {
	if runtime.GOARCH != "amd64" {
		return ""
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return "v1"
}

// cpuModel extracts the processor model string, best-effort per platform.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}
