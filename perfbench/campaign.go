package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"mdkmc/internal/couple"
	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/rng"
	"mdkmc/internal/telemetry"
)

// campaign-restart: an atomistic-KMC damage campaign (couple.RunCampaign)
// on 12³ cells and 2 ranks, 100 MD steps and 40 KMC cycles per iteration,
// dose increment 2e-3, checkpoints every 25 steps (mdserve's default
// cadence). After the straight run it resumes from that run's newest
// snapshot and must reproduce the straight result exactly. It is the only
// workload that both writes and reads checkpoints and crosses the MD→KMC
// hand-off and the campaign ledger. A unit is one straight run plus one
// restart (unit_ms_p50 times both together); the run repeats units, each a different campaign drawn from
// (seed, unit), so a run's timings average over recoil draws.
const (
	campCells     = 12
	campIters     = 2
	campMDSteps   = 100
	campKMCCycles = 40
	campDose      = 2e-3
	campEvery     = 25
	campSetups    = 30 // world constructions timed for setup_s
)

// campSpectrum is the PKA recoil-energy spectrum ("energy_eV weight"). It
// is narrow on purpose: every draw covers 4-6 NRT displacements, so each
// iteration needs exactly two recoils and campaigns from different seeds
// cost about the same.
const campSpectrum = "400 1\n500 1\n600 1\n"

// campaignConfig derives the campaign from the seed, which sets the
// velocities, spectrum draws, recoil placement and anneal streams.
func campaignConfig(seed uint64, dir string, restart bool) (couple.Config, error) {
	spec, err := couple.ReadSpectrum(strings.NewReader(campSpectrum))
	if err != nil {
		return couple.Config{}, err
	}
	return couple.Config{
		MD:        campaignMDConfig(seed),
		KMCCycles: campKMCCycles,
		Protocol:  kmc.OnDemand,
		Campaign: couple.CampaignSpec{
			Iters: campIters, DoseIncrement: campDose, Spectrum: spec,
		},
		Checkpoint: couple.Checkpoint{Dir: dir, Every: campEvery, Restart: restart},
	}, nil
}

// campaignMDConfig is the campaign's MD block.
func campaignMDConfig(seed uint64) md.Config {
	cfg := md.DefaultConfig()
	cfg.Cells = [3]int{campCells, campCells, campCells}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Workers = 1
	cfg.Steps = campMDSteps
	cfg.Seed = seed
	return cfg
}

// campaignRanksXWorkers is the campaign's MD rank goroutines × force-pool
// workers; its KMC stage runs one goroutine per rank.
func campaignRanksXWorkers(seed uint64) int {
	cfg := campaignMDConfig(unitSeed(seed, 0))
	return cfg.Ranks() * md.ResolveWorkers(cfg.Workers)
}

// checkCampaign applies the ledger conservation law to one result:
// Population = Σ(NewVacancies − Merged), and the ledger's last row carries
// the final population and dose.
func checkCampaign(res *couple.CampaignResult) error {
	if len(res.Ledger) != res.Iterations || res.Iterations == 0 {
		return fmt.Errorf("ledger has %d rows for %d iterations", len(res.Ledger), res.Iterations)
	}
	net := 0
	for _, row := range res.Ledger {
		net += row.NewVacancies - row.Merged
	}
	last := res.Ledger[len(res.Ledger)-1]
	if net != len(res.Population) || last.Population != len(res.Population) {
		return fmt.Errorf("population %d, ledger Σ(new-merged) %d, last row %d", len(res.Population), net, last.Population)
	}
	if last.Dose != res.Dose {
		return fmt.Errorf("final dose %v, ledger's last row %v", res.Dose, last.Dose)
	}
	return nil
}

// checkRestart requires the resumed campaign to reproduce the straight
// one exactly: ledger, population and dose.
func checkRestart(straight, resumed *couple.CampaignResult) error {
	if !reflect.DeepEqual(straight.Ledger, resumed.Ledger) {
		return fmt.Errorf("resumed ledger differs from the straight run's")
	}
	if !reflect.DeepEqual(straight.Population, resumed.Population) || straight.Dose != resumed.Dose {
		return fmt.Errorf("resumed population/dose differs from the straight run's")
	}
	return nil
}

// campaignDigest is the straight run's deterministic result.
func campaignDigest(res *couple.CampaignResult) string {
	b, _ := json.Marshal(struct { // slices of plain structs: cannot fail
		Ledger     []couple.IterationSummary
		Population any
		Dose       float64
	}{res.Ledger, res.Population, res.Dose})
	return digestOf(string(b))
}

// campaignSetup times the world construction the campaign starts with (two
// ranks building the 12³ MD state); RunCampaign repeats it internally on
// every start and restart.
func campaignSetup(cfg couple.Config) (float64, error) {
	t0 := time.Now()
	w := mpi.NewWorld(cfg.MD.Ranks())
	err := w.RunE(func(c *mpi.Comm) error {
		_, err := md.NewRank(cfg.MD, c)
		return err
	})
	return time.Since(t0).Seconds(), err
}

// campaignTel captures the rank-0 registry of a traced campaign run.
type campaignTel struct{ set *telemetry.Set }

func (ct *campaignTel) options() telemetry.Options {
	return telemetry.Options{Enabled: true, OnSet: func(s *telemetry.Set) { ct.set = s }}
}

func runCampaignRestart(p params) (*report, error) {
	rep := &report{}
	var tr *tracer
	var root liveSpan
	if p.trace {
		tr = newTracer()
		root = tr.begin("run", "perfbench", 0, -1, "")
	}
	base := filepath.Join(p.scratch, "campaign")
	defer os.RemoveAll(base)

	cfg, err := campaignConfig(unitSeed(p.seed, 0), "", false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < campSetups; i++ {
		sp := tr.begin("md.NewRank (campaign world)", "md", root.id(), -1, "")
		s, err := campaignSetup(cfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}

	var ttsMS, restartMS, latestMS []float64
	lay := newCampaignLayers()
	start := time.Now()
	for len(ttsMS) == 0 || time.Since(start) < p.budget {
		usp := tr.begin("unit", "perfbench", root.id(), -1, "")
		dir := filepath.Join(base, fmt.Sprint(len(ttsMS)))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		seed := unitSeed(p.seed, len(ttsMS))
		straightCfg, err := campaignConfig(seed, dir, false)
		if err != nil {
			return nil, err
		}
		var tel campaignTel
		if p.trace {
			straightCfg.Telemetry = tel.options()
		}
		sp := tr.begin("couple.RunCampaign", "couple", usp.id(), -1, "")
		t0 := time.Now()
		straight, err := couple.RunCampaign(straightCfg)
		tts := msSince(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("straight campaign: %w", err)
		}
		ttsMS = append(ttsMS, tts)
		rep.attempted++
		if len(ttsMS) == 1 {
			rep.digest = campaignDigest(straight)
		}
		if err := checkCampaign(straight); err != nil {
			rep.fail("straight run: %v", err)
		}
		if p.trace {
			lay.addStraight(tel.set, straight, tts, dir, tr)
		}

		resumeCfg, err := campaignConfig(seed, dir, true)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("couple.Latest", "checkpoint", usp.id(), -1, "")
		t0 = time.Now()
		man, err := couple.Latest(dir, resumeCfg.Hash())
		lat := msSince(t0)
		sp.end()
		if err != nil || man == nil {
			return nil, fmt.Errorf("no snapshot to resume from (%v)", err)
		}
		sp = tr.begin("couple.RunCampaign (restart)", "couple", usp.id(), -1, "")
		resumed, err := couple.RunCampaign(resumeCfg)
		restartMS = append(restartMS, msSince(t0))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("resumed campaign: %w", err)
		}
		latestMS = append(latestMS, lat)
		if err := checkCampaign(resumed); err != nil {
			rep.fail("resumed run: %v", err)
		} else if err := checkRestart(straight, resumed); err != nil {
			rep.fail("%v", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		usp.end()
	}
	root.end()

	unitMS := make([]float64, len(ttsMS))
	for i := range ttsMS {
		unitMS[i] = ttsMS[i] + restartMS[i]
	}
	rep.workPerS = campIters / (median(ttsMS) / 1e3)
	rep.unitP50MS = median(unitMS)
	rep.own = []named{
		{"setup_s", median(rep.setupS), "s"},
		{"time_to_solution_s", median(ttsMS) / 1e3, "s"},
		{"restart_s", median(restartMS) / 1e3, "s"},
		{"campaign_iters_per_s", rep.workPerS, "iterations/s"},
		{"campaign_units", float64(len(ttsMS)), "count"},
	}
	if p.trace {
		rep.tr = tr
		rep.layers = lay.metrics(latestMS)
	}
	return rep, nil
}

// unitSeed derives the seed of a workload's i-th unit of work.
func unitSeed(seed uint64, i int) uint64 { return rng.Mix(seed, uint64(i)) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// campaignLayers accumulates the traced straight runs' telemetry.
type campaignLayers struct {
	wallNS              float64
	save, commit        telemetry.Metric // rank 0, merged over runs
	snapshots, runs     float64
	snapBytes           []float64
	recoils, population float64
	stageNS             map[string]float64 // rank-mean timer totals
	mdSteps             float64
}

func newCampaignLayers() *campaignLayers {
	return &campaignLayers{stageNS: map[string]float64{}}
}

func (cl *campaignLayers) addStraight(set *telemetry.Set, res *couple.CampaignResult, ttsMS float64, dir string, tr *tracer) {
	snaps := make([]snap, set.Ranks())
	for i := range snaps {
		snaps[i] = snapshotOf(set.Rank(i))
	}
	meanNS := func(timer string) (ns float64, count int64) {
		for _, s := range snaps {
			ns += float64(s.ns(timer))
			count += s[timer].Count
		}
		return ns / float64(len(snaps)), count
	}
	cl.save = mergeTimer(cl.save, snaps[0]["couple/checkpoint/save"])
	cl.commit = mergeTimer(cl.commit, snaps[0]["couple/checkpoint/commit"])
	cl.snapshots += float64(snaps[0].count("couple/checkpoint"))
	cl.wallNS += ttsMS * 1e6
	cl.runs++
	cl.recoils += float64(res.Recoils)
	cl.population += float64(len(res.Population))
	cl.mdSteps += float64(res.MDSteps)
	if b := newestSnapshotBytes(dir); b > 0 {
		cl.snapBytes = append(cl.snapBytes, b)
	}
	for _, ph := range []struct{ name, layer, parent string }{
		{"couple/md-stage", "couple", "couple.RunCampaign"},
		{"couple/kmc-stage", "couple", "couple.RunCampaign"},
		{"md/step", "md", "couple/md-stage"},
		{"md/density", "eam", "md/step"},
		{"md/force", "eam", "md/step"},
		{"md/relink", "md", "md/step"},
		{"kmc/cycle", "kmc", "couple/kmc-stage"},
	} {
		ns, count := meanNS(ph.name)
		cl.stageNS[ph.name] += ns
		tr.addPhase(phase{Name: ph.name, Layer: ph.layer, Parent: ph.parent, TotalNS: int64(ns), Count: count})
	}
	// Snapshots are written both inside the MD stage and between
	// iterations; the timer does not tell them apart.
	ns, count := meanNS("couple/checkpoint")
	tr.addPhase(phase{Name: "couple/checkpoint", Layer: "checkpoint", Parent: "couple.RunCampaign",
		TotalNS: int64(ns), Count: count, Overlaps: true})
}

func (cl *campaignLayers) metrics(latestMS []float64) map[string]float64 {
	return map[string]float64{
		"couple.md_stage_frac":          cl.stageNS["couple/md-stage"] / cl.wallNS,
		"couple.kmc_stage_frac":         cl.stageNS["couple/kmc-stage"] / cl.wallNS,
		"campaign.recoils":              cl.recoils / cl.runs,
		"campaign.population":           cl.population / cl.runs,
		"checkpoint.save_ms_p50":        histP50MS(cl.save),
		"checkpoint.commit_ms_p50":      histP50MS(cl.commit),
		"checkpoint.snapshots":          cl.snapshots / cl.runs,
		"checkpoint.bytes_per_snapshot": median(cl.snapBytes),
		"checkpoint.latest_ms":          median(latestMS),
		"md.density_ms_per_step":        cl.stageNS["md/density"] / cl.mdSteps / 1e6,
		"md.force_ms_per_step":          cl.stageNS["md/force"] / cl.mdSteps / 1e6,
		"md.relink_ms_per_step":         cl.stageNS["md/relink"] / cl.mdSteps / 1e6,
	}
}

// mergeTimer adds b's observations and histogram into a.
func mergeTimer(a, b telemetry.Metric) telemetry.Metric {
	a.Count += b.Count
	a.SumNS += b.SumNS
	byLe := map[int64]int64{}
	for _, bk := range a.Buckets {
		byLe[bk.LeNS] += bk.Count
	}
	for _, bk := range b.Buckets {
		byLe[bk.LeNS] += bk.Count
	}
	a.Buckets = a.Buckets[:0]
	for le, n := range byLe {
		a.Buckets = append(a.Buckets, telemetry.Bucket{LeNS: le, Count: n})
	}
	sort.Slice(a.Buckets, func(i, j int) bool { return a.Buckets[i].LeNS < a.Buckets[j].LeNS })
	return a
}

// newestSnapshotBytes returns the size of the newest committed snapshot
// directory under dir (0 when there is none).
func newestSnapshotBytes(dir string) float64 {
	snaps, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")) // pattern is valid
	if len(snaps) == 0 {
		return 0
	}
	sort.Strings(snaps)
	files, _ := os.ReadDir(snaps[len(snaps)-1]) // unreadable = 0 bytes
	var total int64
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			total += info.Size()
		}
	}
	return float64(total)
}
