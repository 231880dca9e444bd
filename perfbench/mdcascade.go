package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/rng"
	"mdkmc/internal/telemetry"
)

// md-cascade: one 500 eV PKA cascade in 16³-cell Fe (8192 atoms) at 600 K
// on a 2×1×1 grid, one force worker per rank, NVE, no checkpoints. The EAM
// kernel and the ghost exchange do almost all the work, and the cascade's
// run-away atoms exercise the relink and wide-scan paths a thermal box
// skips. An episode builds the world and runs mdEpisodeSteps steps of one
// cascade; the run repeats episodes until its time is up, each with its own
// PKA direction and velocities drawn from (seed, episode), so a run's
// timings average over cascade directions instead of depending on one.
const (
	mdCells          = 16
	mdPKAEnergy      = 500 // eV
	mdEpisodeSteps   = 150
	mdDriftTolerance = 1e-3 // |ΔE|/|E0| over one episode
	mdExtraSetups    = 15   // step-less episodes timed for setup_s, beside each episode's own
)

// mdCascadeConfig derives episode ep's cascade from the seed: they set the
// initial velocities and the PKA direction.
func mdCascadeConfig(seed uint64, ep int) md.Config {
	seed = unitSeed(seed, ep)
	cfg := md.DefaultConfig()
	cfg.Cells = [3]int{mdCells, mdCells, mdCells}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.Workers = 1
	cfg.Temperature = 600
	cfg.Seed = seed
	src := rng.New(rng.Mix(seed, 0x9CA))
	var dir [3]float64
	for dir == ([3]float64{}) {
		for d := range dir {
			dir[d] = 2*src.Float64() - 1
		}
	}
	cfg.PKA = &md.PKA{Energy: mdPKAEnergy, Direction: dir}
	return cfg
}

// mdRanksXWorkers is md-cascade's rank goroutines × force-pool workers.
func mdRanksXWorkers(seed uint64) int {
	cfg := mdCascadeConfig(seed, 0)
	return cfg.Ranks() * md.ResolveWorkers(cfg.Workers)
}

// mdEpisode is what one episode measured and checked.
type mdEpisode struct {
	setupS         float64
	stepMS         []float64 // rank 0's wall time of each Step
	atoms0, atoms1 int
	e0, e1         float64
	vacancies      int
	coincident     []error

	// Traced episodes only.
	regs       []*telemetry.Registry
	ops        []md.OpStats // per rank, summed over the steps
	mpi0, mpi1 []snap       // per rank, before and after the steps
	allocs     uint64
	heapBytes  uint64 // live heap the set-up added
}

func runMDEpisode(cfg md.Config, steps int, tr *tracer, parent int64) (*mdEpisode, error) {
	n := cfg.Ranks()
	ep := &mdEpisode{coincident: make([]error, n)}
	traced := tr != nil
	if traced {
		ep.regs = make([]*telemetry.Registry, n)
		for i := range ep.regs {
			ep.regs[i] = telemetry.New(i)
		}
		ep.ops = make([]md.OpStats, n)
		ep.mpi0, ep.mpi1 = make([]snap, n), make([]snap, n)
	}
	var heap0, allocs0 uint64
	if traced {
		heap0 = heapInUse()
	}
	runtime.GC()
	t0 := time.Now()
	w := mpi.NewWorld(n)
	worldSpan := tr.begin("mpi.World.RunE", "mpi", parent, -1, "")
	err := w.RunE(func(c *mpi.Comm) error {
		r := c.Rank()
		lane := tr.begin("rank", "mpi", worldSpan.id(), r, "")
		defer lane.end()
		sp := tr.begin("md.NewRank", "md", lane.id(), r, "")
		rank, err := md.NewRank(cfg, c)
		sp.end()
		if err != nil {
			return err
		}
		if traced {
			c.AttachTelemetry(ep.regs[r])
			rank.AttachTelemetry(ep.regs[r])
		}
		sp = tr.begin("md.Rank.TotalEnergy", "md", lane.id(), r, "")
		ke, pe := rank.TotalEnergy()
		atoms := rank.GlobalAtomCount()
		sp.end()
		if r == 0 {
			ep.setupS = time.Since(t0).Seconds()
			ep.e0, ep.atoms0 = ke+pe, atoms
			if traced {
				ep.heapBytes = max(heapInUse(), heap0) - heap0
				allocs0 = mallocs()
			}
			ep.stepMS = make([]float64, 0, steps)
		}
		c.Barrier()
		if traced {
			ep.mpi0[r] = snapshotOf(ep.regs[r])
		}
		for s := 0; s < steps; s++ {
			sp := tr.begin("md.Rank.Step", "md", lane.id(), r, "")
			t := time.Now()
			rank.Step()
			if r == 0 {
				ep.stepMS = append(ep.stepMS, msSince(t))
			}
			sp.end()
			if traced {
				ep.ops[r].Add(rank.LastStats)
			}
		}
		if traced {
			ep.mpi1[r] = snapshotOf(ep.regs[r])
			if r == 0 {
				ep.allocs = mallocs() - allocs0
			}
		}
		ep.coincident[r] = rank.CoincidenceError()
		sp = tr.begin("md.Rank.TotalEnergy", "md", lane.id(), r, "")
		ke, pe = rank.TotalEnergy()
		atoms = rank.GlobalAtomCount()
		vac := rank.GlobalVacancyCount()
		sp.end()
		if r == 0 {
			ep.e1, ep.atoms1, ep.vacancies = ke+pe, atoms, vac
		}
		return nil
	})
	worldSpan.end()
	return ep, err
}

// checkMDEpisode applies md-cascade's output checks: no coincident atoms,
// atoms conserved, energy drift within tolerance.
func checkMDEpisode(rep *report, ep *mdEpisode) {
	for r, err := range ep.coincident {
		if err != nil {
			rep.fail("rank %d: %v", r, err)
			return
		}
	}
	if ep.atoms1 != ep.atoms0 {
		rep.fail("atoms not conserved: %d -> %d", ep.atoms0, ep.atoms1)
		return
	}
	if d := math.Abs(ep.e1-ep.e0) / math.Abs(ep.e0); !(d <= mdDriftTolerance) {
		rep.fail("energy drift %.3g exceeds %.0e", d, mdDriftTolerance)
	}
}

// mdDigest is the episode's deterministic result: the exact final energy
// bits, atom count and vacancy count.
func mdDigest(ep *mdEpisode) string {
	return digestOf(fmt.Sprintf("e0=%x e1=%x atoms=%d vac=%d",
		math.Float64bits(ep.e0), math.Float64bits(ep.e1), ep.atoms1, ep.vacancies))
}

func runMDCascade(p params) (*report, error) {
	rep := &report{}
	var tr *tracer
	var root liveSpan
	if p.trace {
		tr = newTracer()
		root = tr.begin("run", "perfbench", 0, -1, "")
	}
	for i := 0; i < mdExtraSetups; i++ {
		ep, err := runMDEpisode(mdCascadeConfig(p.seed, 0), 0, nil, 0)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, ep.setupS)
	}
	var stepMS []float64
	var eps []*mdEpisode
	start := time.Now()
	for len(eps) == 0 || time.Since(start) < p.budget {
		esp := tr.begin("episode", "perfbench", root.id(), -1, "")
		ep, err := runMDEpisode(mdCascadeConfig(p.seed, len(eps)), mdEpisodeSteps, tr, esp.id())
		if err != nil {
			return nil, err
		}
		rep.attempted++
		checkMDEpisode(rep, ep)
		if len(eps) == 0 {
			rep.digest = mdDigest(ep)
		}
		esp.end()
		eps = append(eps, ep)
		rep.setupS = append(rep.setupS, ep.setupS)
		stepMS = append(stepMS, ep.stepMS...)
	}
	root.end()

	// Per-episode statistics, then their median over episodes.
	atoms := float64(eps[0].atoms0)
	blocks := make([][]float64, len(eps))
	rates := make([]float64, len(eps))
	for i, ep := range eps {
		blocks[i] = ep.stepMS
		rates[i] = atoms * float64(len(ep.stepMS)) / (sum(ep.stepMS) / 1e3)
	}
	drift := math.Abs(eps[0].e1-eps[0].e0) / math.Abs(eps[0].e0)
	rep.workPerS = median(rates)
	rep.unitP50MS = median(perBlock(blocks, 0.5))
	rep.own = []named{
		{"setup_s", median(rep.setupS), "s"},
		{"md_atom_steps_per_s", rep.workPerS, "atom-steps/s"},
		{"md_step_ms_p50", rep.unitP50MS, "ms"},
		{"md_step_ms_p90", median(perBlock(blocks, 0.9)), "ms"},
		{"md_step_ms_p99", percentile(stepMS, 0.99), "ms"},
		{"md_steps", float64(len(stepMS)), "count"},
		{"energy_drift_rel", drift, "|dE|/|E0|"},
	}
	if p.trace {
		rep.tr = tr
		rep.layers = mdLayers(eps, tr, atoms)
	}
	return rep, nil
}

// mdLayers derives md-cascade's per-layer metrics from the traced
// episodes and adds the step phases to the trace table.
func mdLayers(eps []*mdEpisode, tr *tracer, atoms float64) map[string]float64 {
	ranks := len(eps[0].regs)
	var steps, allocs, heap float64
	var ops md.OpStats
	busy := make([]float64, ranks)
	sum := map[string]float64{} // timer/counter totals over ranks and episodes
	var p2pMsgs, p2pBytes, collMsgs float64
	for _, ep := range eps {
		steps += float64(len(ep.stepMS))
		allocs += float64(ep.allocs)
		heap += float64(ep.heapBytes)
		for r, reg := range ep.regs {
			s := snapshotOf(reg)
			ops.Add(ep.ops[r])
			s.addTotals(sum)
			busy[r] += float64(s.ns("md/density") + s.ns("md/force"))
			d := func(name string) float64 { return float64(ep.mpi1[r].count(name) - ep.mpi0[r].count(name)) }
			p2pMsgs += d("mpi/p2p/msgs-sent")
			p2pBytes += d("mpi/p2p/bytes-sent")
			collMsgs += d("mpi/coll/msgs-sent")
		}
	}
	perStepMS := func(timers ...string) float64 {
		var ns float64
		for _, t := range timers {
			ns += sum[t]
		}
		return ns / float64(ranks) / steps / 1e6
	}
	for _, ph := range []struct{ name, layer, parent string }{
		{"md/density", "eam", "md.Rank.Step"},
		{"md/force", "eam", "md.Rank.Step"},
		{"md/relink", "md", "md.Rank.Step"},
		{"md/ghost/migrate", "md.ghost", "md/relink"},
		{"md/ghost/pos/pack", "md.ghost", "md.Rank.Step"},
		{"md/ghost/pos/wait", "md.ghost", "md.Rank.Step"},
		{"md/ghost/pos/unpack", "md.ghost", "md.Rank.Step"},
		{"md/ghost/rho/pack", "md.ghost", "md.Rank.Step"},
		{"md/ghost/rho/wait", "md.ghost", "md.Rank.Step"},
		{"md/ghost/rho/unpack", "md.ghost", "md.Rank.Step"},
	} {
		tr.addPhase(phase{Name: ph.name, Layer: ph.layer, Parent: ph.parent,
			TotalNS: int64(sum[ph.name] / float64(ranks)), Count: int64(sum[ph.name+"#count"])})
	}
	return map[string]float64{
		"eam.pairs_per_step":               float64(ops.Pairs) / steps,
		"eam.lookups_per_step":             float64(ops.Lookups) / steps,
		"md.density_ms_per_step":           perStepMS("md/density"),
		"md.force_ms_per_step":             perStepMS("md/force"),
		"md.ns_per_pair":                   (sum["md/density"] + sum["md/force"]) / float64(max(ops.Pairs, 1)),
		"md.relink_ms_per_step":            perStepMS("md/relink"),
		"md.allocs_per_step":               allocs / steps,
		"md.bytes_per_atom":                heap / float64(len(eps)) / atoms,
		"md.imbalance":                     imbalance(busy),
		"md.ghost.pos_wait_ms_per_step":    perStepMS("md/ghost/pos/wait"),
		"md.ghost.rho_wait_ms_per_step":    perStepMS("md/ghost/rho/wait"),
		"md.ghost.pack_unpack_ms_per_step": perStepMS("md/ghost/pos/pack", "md/ghost/pos/unpack", "md/ghost/rho/pack", "md/ghost/rho/unpack"),
		"md.ghost.migrate_ms_per_step":     perStepMS("md/ghost/migrate"),
		"md.ghost.bytes_per_step":          sum["md/ghost/bytes-sent"] / steps,
		"mpi.p2p_msgs_per_step":            p2pMsgs / steps,
		"mpi.p2p_bytes_per_step":           p2pBytes / steps,
		"mpi.coll_msgs_per_step":           collMsgs / steps,
	}
}
