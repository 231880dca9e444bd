package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"mdkmc/internal/couple"
	"mdkmc/internal/lattice"
	"mdkmc/internal/serve"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bs benchSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

// inTempDir runs the rest of the test with a fresh working directory, so
// the scratch and trace files land there.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck — best effort
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// a correct result that carries every metric BENCHMARK.json lists for that
// mode, each with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bs := loadBenchSpec(t)
	inTempDir(t)
	if len(bs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bs.Workloads), len(workloads))
	}
	for _, w := range bs.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := bs.EndToEnd
			if trace {
				want = bs.PerLayer
			}
			p := params{seed: defaultSeed, budget: 100 * time.Millisecond, trace: trace, scratch: "scratch"}
			res, err := runOne(w.Name, wl, p, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestMetricNames checks BENCHMARK.json's names and units against the
// format rules and the program's per-layer table.
func TestMetricNames(t *testing.T) {
	bs := loadBenchSpec(t)
	seen := map[string]bool{}
	all := append(append([]struct{ Name, Unit string }{}, bs.EndToEnd...), bs.PerLayer...)
	for _, m := range all {
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or duplicate metric %q unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(bs.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bs.PerLayer), len(layerMetrics))
	}
	for i, m := range bs.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// validCampaign is a small self-consistent campaign result.
func validCampaign() *couple.CampaignResult {
	pop := []lattice.Coord{{X: 1}, {X: 2}, {X: 3}}
	return &couple.CampaignResult{
		Iterations: 2,
		Dose:       4e-3,
		Ledger: []couple.IterationSummary{
			{Iter: 0, Dose: 2e-3, NewVacancies: 2, Population: 2},
			{Iter: 1, Dose: 4e-3, NewVacancies: 2, Merged: 1, Population: 3},
		},
		Population: pop,
	}
}

// run applies an episode check to a fresh report.
func run[E any](check func(*report, E), ep E) *report {
	rep := &report{}
	check(rep, ep)
	return rep
}

func TestChecksRejectTamperedResults(t *testing.T) {
	if err := checkCampaign(validCampaign()); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	offByOne := validCampaign()
	offByOne.Population = offByOne.Population[:2]
	if checkCampaign(offByOne) == nil {
		t.Error("campaign with population off by one accepted")
	}
	doseOff := validCampaign()
	doseOff.Dose = 5e-3
	if checkCampaign(doseOff) == nil {
		t.Error("campaign with final dose off its ledger accepted")
	}

	if err := checkRestart(validCampaign(), validCampaign()); err != nil {
		t.Fatalf("identical restart rejected: %v", err)
	}
	resumed := validCampaign()
	resumed.Ledger[1].Merged = 0
	if checkRestart(validCampaign(), resumed) == nil {
		t.Error("restart with a different ledger accepted")
	}
	resumed = validCampaign()
	resumed.Population[0].X = 9
	if checkRestart(validCampaign(), resumed) == nil {
		t.Error("restart with a different population accepted")
	}

	rep := &report{digest: "0000000000000000"}
	checkDigest("md-cascade", rep)
	if rep.failed != 1 {
		t.Error("result digest mismatch accepted")
	}

	ep := &mdEpisode{atoms0: 8192, atoms1: 8192, e0: -1000, e1: -1000, coincident: make([]error, 2)}
	if rep := run(checkMDEpisode, ep); rep.failed != 0 {
		t.Fatalf("valid md episode rejected: %v", rep.problems)
	}
	ep.atoms1--
	if rep := run(checkMDEpisode, ep); rep.failed != 1 {
		t.Error("md episode that lost an atom accepted")
	}
	ep.atoms1++
	ep.coincident[1] = errors.New("coincident atoms")
	if rep := run(checkMDEpisode, ep); rep.failed != 1 {
		t.Error("md episode with a coincidence error accepted")
	}
	ep.coincident[1] = nil
	ep.e1 = -1010
	if rep := run(checkMDEpisode, ep); rep.failed != 1 {
		t.Error("md episode with 1% energy drift accepted")
	}

	kep := &kmcEpisode{vac0: 3, vac1: 3, sites: [][]lattice.Coord{{{X: 1}}, {{X: 2}, {X: 3}}}}
	if rep := run(checkKMCEpisode, kep); rep.failed != 0 {
		t.Fatalf("valid kmc episode rejected: %v", rep.problems)
	}
	kep.sites[1] = kep.sites[1][:1]
	if rep := run(checkKMCEpisode, kep); rep.failed != 1 {
		t.Error("kmc episode that lost a vacancy accepted")
	}

	c := validCampaign()
	st := &serve.JobStatus{Type: serve.TypeCampaign, Result: json.RawMessage(`{}`),
		Dose: &serve.DoseStatus{Dose: c.Dose, Population: 3, Ledger: c.Ledger}}
	if err := checkServeJob(st); err != nil {
		t.Fatalf("valid campaign job rejected: %v", err)
	}
	st.Dose.Ledger[1].Population = 4
	if checkServeJob(st) == nil {
		t.Error("campaign job with population off by one accepted")
	}
	if checkServeJob(&serve.JobStatus{Type: serve.TypeMD}) == nil {
		t.Error("done job without a result accepted")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// TestRanksXWorkers pins the parallelism each workload's configs ask for,
// and that a run asking for more than the machine's CPUs is flagged.
func TestRanksXWorkers(t *testing.T) {
	want := map[string]int{
		"md-cascade":       2,
		"kmc-anneal":       2,
		"campaign-restart": 2,
		"serve-mix":        serveSlots * runtime.GOMAXPROCS(0),
	}
	for name, wl := range workloads {
		f := collectFacts(name, wl, params{seed: defaultSeed})
		if f.RanksXWork != want[name] {
			t.Errorf("%s: ranks x workers %d, want %d", name, f.RanksXWork, want[name])
		}
		if flagged := len(f.Warnings) > 0; flagged != (f.RanksXWork > f.NProc) {
			t.Errorf("%s: %d ranks x workers on %d CPUs, warnings %q", name, f.RanksXWork, f.NProc, f.Warnings)
		}
	}
}
