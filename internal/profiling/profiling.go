// Package profiling gives the commands their -cpuprofile and -memprofile
// flags, so the end-to-end paths can be profiled as they run in
// production shape instead of through a throwaway benchmark.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and returns the function that
// ends it and then writes a heap profile into memPath. An empty path
// skips that profile; with both empty Start does nothing. The caller runs
// stop once, on the path that leaves the program normally: a profile cut
// off by os.Exit is truncated.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		runtime.GC() // the heap profile reports as of the last collection
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}
