package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// perBlock returns each block's q-quantile.
func perBlock(blocks [][]float64, q float64) []float64 {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = percentile(b, q)
	}
	return out
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// gcPauseMS returns the total stop-the-world GC pause of the process so far.
func gcPauseMS() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// facts are the run facts recorded beside every result.
type facts struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// RanksXWork is the most goroutines the workload's configs keep busy
	// at once: rank goroutines × force-pool workers per rank.
	RanksXWork int      `json:"ranks_x_workers"`
	Warnings   []string `json:"warnings,omitempty"`
}

func (f facts) json() string {
	b, _ := json.Marshal(f) // plain struct of strings and numbers
	return string(b)
}

func collectFacts(workload string, wl workload, p params) facts {
	f := facts{
		Workload:   workload,
		Seed:       p.seed,
		Trace:      p.trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		RanksXWork: wl.ranksXWorkers(p.seed),
	}
	if f.RanksXWork > f.NProc {
		f.Warnings = append(f.Warnings, fmt.Sprintf(
			"oversubscribed: %s runs up to %d ranks x workers on %d CPUs", workload, f.RanksXWork, f.NProc))
	}
	return f
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checkout's git revision, or "unknown" when the working
// directory is not the root of a git repository (git is not asked to look
// further up, outside the checkout).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
