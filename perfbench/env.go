package main

import (
	"fmt"
	"runtime"

	"repro/internal/dense"
)

// environment is the header line every run prints before its metrics,
// so runs on different hosts or settings are never compared unawares.
func environment(o options, w workloadSpec, traced int, kernel string) string {
	return fmt.Sprintf("# env go=%s os=%s/%s nproc=%d gomaxprocs=%d workers=%d kernel=%s cpu=%s spill_fs=%s seed=%d workload=%s trace=%d seconds=%g",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), o.Workers,
		kernel, dense.SIMDFeatures(), filesystem(o.Spill), o.Seed, w.Name, traced, o.Seconds)
}
