package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"ps3/internal/store"
)

// hardware is the block stated with every result: a latency means nothing
// without the machine and the concurrency it was measured at.
type hardware struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Clients    int    `json:"clients"`
	// CommitWindowMs and the cache budgets are the serving knobs in force.
	CommitWindowMs    float64 `json:"commit_window_ms"`
	BlockCacheBytes   int64   `json:"default_block_cache_bytes"`
	CompiledCacheSize int     `json:"compiled_cache_entries"`
	PickCacheSize     int     `json:"pick_cache_entries"`
}

// detectHardware fixes the run's concurrency from the processors Go may use
// (the host's, or fewer under a GOMAXPROCS limit): GOMAXPROCS = min(nproc, 4)
// and min(nproc, 2) client threads (the closed-loop query clients and, where
// the workload has one, the paced writer), so the load generator never has
// more client threads than processors.
func detectHardware() hardware {
	n := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	return hardware{
		CPUModel:          cpuModel(),
		NumCPU:            n,
		GoMaxProcs:        min(n, 4),
		GoVersion:         runtime.Version(),
		Clients:           min(n, 2),
		CommitWindowMs:    float64(commitWindow.Microseconds()) / 1e3,
		BlockCacheBytes:   store.DefaultCacheBytes,
		CompiledCacheSize: compiledCacheSize,
		PickCacheSize:     pickCacheSize,
	}
}

func (h hardware) describe() string {
	return fmt.Sprintf("hardware: %s, nproc %d, GOMAXPROCS %d, %s, %d client threads, commit window %gms, default block cache %d B, compiled cache %d entries, pick cache %d entries",
		h.CPUModel, h.NumCPU, h.GoMaxProcs, h.GoVersion, h.Clients, h.CommitWindowMs, h.BlockCacheBytes, h.CompiledCacheSize, h.PickCacheSize)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// peak read later covers serving and not the set-up's resident table. Best
// effort: where the reset is unavailable the peak includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // a failure leaves the peak as it was
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
