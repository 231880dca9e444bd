// Command perfbench is the repository's layered benchmark. It runs one of
// four workloads through the public entry points of the md, kmc, couple and
// serve packages, checks that their outputs are correct, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics listed in
// BENCHMARK.json. A traced run (--trace 1) records parent-linked spans
// around every call into a layer, attaches the telemetry registry for the
// phases inside a step, and reports the per-layer metrics; it also writes
// the spans as JSONL and a per-layer markdown table under .bench_build/trace.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload md-cascade --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//
// The end-to-end metrics are the same four for every workload, because
// every run must report every end-to-end metric; what a "unit" of work is
// depends on the workload:
//
//	workload          unit_ms_p50                          work_per_s
//	md-cascade        MD step                              atom-steps/s
//	kmc-anneal        KMC cycle                            KMC events/s
//	campaign-restart  checkpointed campaign plus resume    campaign iterations/s
//	serve-mix         job latency, POST to terminal event  jobs/s
//
// md-cascade and kmc-anneal split a run into episodes and report the median
// over episodes of each episode's statistic; campaign-restart and serve-mix
// report medians over their units. setup_s and peak_rss_mb are the set-up
// time (median of several constructions) and the process's peak resident
// set. Tail latencies (step and cycle p90 and p99, restart time, job p90)
// are printed under the workloads' own names but carry no bound: on a
// shared host they move with other tenants' load far more than medians do.
//
// Each workload also prints its metrics under their own names (for example
// md_atom_steps_per_s, time_to_solution_s, job_latency_s_p90). --workload
// all runs the four workloads one after another, each in a process of its
// own, and fails if any of them does.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose per-workload result digests are committed
// in checks.go.
const defaultSeed = 1

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params is what every workload receives: its inputs derive from seed only.
type params struct {
	seed   uint64
	budget time.Duration
	trace  bool
	// scratch is a directory inside the checkout the workload may fill;
	// the workload removes what it creates.
	scratch string
}

// named is one workload metric under the name the workload itself gives
// it, for the human-readable summary.
type named struct {
	name  string
	value float64
	unit  string
}

// report is what a workload hands back to main.
type report struct {
	attempted int
	failed    int
	problems  []string // one line per failed check

	// digest is a deterministic digest of the workload's results over a
	// fixed prefix of its work; on the default seed it must equal the
	// committed value.
	digest string

	setupS    []float64 // set-up samples (s)
	workPerS  float64
	unitP50MS float64
	// own lists the workload's metrics under their own names.
	own []named

	// Traced runs only.
	layers map[string]float64
	tr     *tracer
}

// fail records one failed check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one of the benchmark's workloads.
type workload struct {
	run func(params) (*report, error)
	// ranksXWorkers works out, from the configs the workload runs, the
	// most rank goroutines × force-pool workers it keeps busy at once.
	ranksXWorkers func(seed uint64) int
}

// workloads maps each workload name to its implementation.
var workloads = map[string]workload{
	"md-cascade":       {runMDCascade, mdRanksXWorkers},
	"kmc-anneal":       {runKMCAnneal, kmcRanksXWorkers},
	"campaign-restart": {runCampaignRestart, campaignRanksXWorkers},
	"serve-mix":        {runServeMix, serveRanksXWorkers},
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"md-cascade", "kmc-anneal", "campaign-restart", "serve-mix"}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	p := params{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scratch: filepath.Join(".bench_build", "scratch"),
	}
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	res, err := runOne(*workload, wl, p, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne runs one workload, writes its facts, own metrics and (traced)
// per-layer table to w, and returns the result line.
func runOne(name string, wl workload, p params, w io.Writer) (*result, error) {
	facts := collectFacts(name, wl, p)
	fmt.Fprintf(w, "# facts %s\n", facts.json())
	for _, warn := range facts.Warnings {
		fmt.Fprintln(os.Stderr, "perfbench: warning:", warn)
	}
	if p.trace {
		p.budget /= 2 // the other half is the untraced comparison run
	}
	gc0 := gcPauseMS()
	rep, err := wl.run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	gcMS := gcPauseMS() - gc0
	if p.seed == defaultSeed {
		checkDigest(name, rep)
	}
	res := &result{Metrics: map[string]metric{}}
	record := func(r *report) {
		for _, pr := range r.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, pr)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Failed == 0
	}
	record(rep)
	own := ownMetrics(rep)
	for _, m := range own {
		fmt.Fprintf(w, "# %s %-24s %.6g %s\n", name, m.name, m.value, m.unit)
	}
	if !p.trace {
		res.Metrics["setup_s"] = metric{median(rep.setupS), "s"}
		res.Metrics["work_per_s"] = metric{rep.workPerS, "1/s"}
		res.Metrics["unit_ms_p50"] = metric{rep.unitP50MS, "ms"}
		res.Metrics["peak_rss_mb"] = metric{own[len(own)-1].value, "MiB"}
		return res, nil
	}

	// Traced: compare against an untraced run of the same length for the
	// tracing overhead, then report every per-layer metric.
	base, err := wl.run(params{seed: p.seed, budget: p.budget, scratch: p.scratch})
	if err != nil {
		return nil, fmt.Errorf("%s (untraced comparison): %w", name, err)
	}
	record(base)
	layers := rep.layers
	layers["telemetry.overhead_frac"] = rep.unitP50MS/base.unitP50MS - 1
	layers["runtime.gc_pause_ms"] = gcMS
	for _, lm := range layerMetrics {
		// A layer the workload does not exercise reports 0.
		res.Metrics[lm.name] = metric{layers[lm.name], lm.unit}
	}
	if err := writeTrace(name, p, facts, rep.tr, res.Metrics, w); err != nil {
		return nil, err
	}
	return res, nil
}

// ownMetrics returns the workload's metrics under their own names, then
// failed_frac and, last, peak_rss_mb.
func ownMetrics(rep *report) []named {
	return append(rep.own,
		named{"failed_frac", float64(rep.failed) / float64(max(rep.attempted, 1)), "failed/attempted"},
		named{"peak_rss_mb", peakRSSMiB(), "MiB"})
}

// runAll runs each workload in a child process of its own, so that each
// reports its own facts, metrics, result line and peak resident set. It
// fails when a child fails or reports an incorrect result.
func runAll(seed uint64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range workloadOrder {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			failed = append(failed, name+": no correct result")
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}
