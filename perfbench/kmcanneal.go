package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// kmc-anneal: an on-demand-protocol KMC anneal of a 24³-cell box at vacancy
// concentration 2e-3 on a 2×1×1 grid. No EAM force kernel and no
// checkpoints run; mpi carries small dirty-site messages and one collective
// per cycle instead of md-cascade's large halo payloads, so an mpi or kmc
// change shows here and a kernel change should not. An episode builds the
// state and runs kmcEpisodeCycles cycles; the run repeats episodes, each
// with its own vacancy placement drawn from (seed, episode).
const (
	kmcCells         = 24
	kmcVacancyConc   = 2e-3
	kmcEpisodeCycles = 3000
)

// kmcAnnealConfig derives episode ep's anneal from the seed; they set the
// vacancy placement and the event streams.
func kmcAnnealConfig(seed uint64, ep int) kmc.Config {
	cfg := kmc.DefaultConfig()
	cfg.Cells = [3]int{kmcCells, kmcCells, kmcCells}
	cfg.Grid = [3]int{2, 1, 1}
	cfg.VacancyConcentration = kmcVacancyConc
	cfg.Protocol = kmc.OnDemand
	cfg.Seed = unitSeed(seed, ep)
	return cfg
}

// kmcRanksXWorkers is kmc-anneal's rank goroutines; a KMC rank runs on
// its own goroutine alone.
func kmcRanksXWorkers(seed uint64) int {
	cfg := kmcAnnealConfig(seed, 0)
	return cfg.Ranks()
}

type kmcEpisode struct {
	setupS     float64
	cycleMS    []float64 // rank 0's wall time of each Cycle
	vac0, vac1 int
	events     int
	mcTime     float64
	sites      [][]lattice.Coord // per rank, final vacancies

	regs       []*telemetry.Registry
	mpi0, mpi1 []snap
	allocs     uint64
}

func runKMCEpisode(cfg kmc.Config, cycles int, tr *tracer, parent int64) (*kmcEpisode, error) {
	n := cfg.Ranks()
	ep := &kmcEpisode{sites: make([][]lattice.Coord, n)}
	traced := tr != nil
	if traced {
		ep.regs = make([]*telemetry.Registry, n)
		for i := range ep.regs {
			ep.regs[i] = telemetry.New(i)
		}
		ep.mpi0, ep.mpi1 = make([]snap, n), make([]snap, n)
	}
	var allocs0 uint64
	runtime.GC()
	t0 := time.Now()
	w := mpi.NewWorld(n)
	worldSpan := tr.begin("mpi.World.RunE", "mpi", parent, -1, "")
	err := w.RunE(func(c *mpi.Comm) error {
		r := c.Rank()
		lane := tr.begin("rank", "mpi", worldSpan.id(), r, "")
		defer lane.end()
		sp := tr.begin("kmc.NewState", "kmc", lane.id(), r, "")
		st, err := kmc.NewState(cfg, c)
		sp.end()
		if err != nil {
			return err
		}
		if traced {
			c.AttachTelemetry(ep.regs[r])
			st.AttachTelemetry(ep.regs[r])
		}
		vac := st.GlobalVacancyCount()
		if r == 0 {
			ep.setupS = time.Since(t0).Seconds()
			ep.vac0 = vac
			ep.cycleMS = make([]float64, 0, cycles)
			if traced {
				allocs0 = mallocs()
			}
		}
		if traced {
			ep.mpi0[r] = snapshotOf(ep.regs[r])
		}
		for i := 0; i < cycles; i++ {
			sp := tr.begin("kmc.State.Cycle", "kmc", lane.id(), r, "")
			t := time.Now()
			st.Cycle()
			if r == 0 {
				ep.cycleMS = append(ep.cycleMS, msSince(t))
			}
			sp.end()
		}
		if traced {
			ep.mpi1[r] = snapshotOf(ep.regs[r])
			if r == 0 {
				ep.allocs = mallocs() - allocs0
			}
		}
		vac = st.GlobalVacancyCount()
		events := c.Allreduce(mpi.Sum, float64(st.Events))[0]
		ep.sites[r] = st.VacancySites()
		if r == 0 {
			ep.vac1, ep.events, ep.mcTime = vac, int(events+0.5), st.Time
		}
		return nil
	})
	worldSpan.end()
	return ep, err
}

// checkKMCEpisode applies kmc-anneal's output check: vacancies conserved,
// both as the collective count and as the gathered site list.
func checkKMCEpisode(rep *report, ep *kmcEpisode) {
	listed := 0
	for _, s := range ep.sites {
		listed += len(s)
	}
	if ep.vac1 != ep.vac0 || listed != ep.vac0 {
		rep.fail("vacancies not conserved: %d -> %d (%d listed)", ep.vac0, ep.vac1, listed)
	}
}

// kmcDigest is the episode's deterministic result: the sorted final
// vacancy sites, the event count and the exact MC clock.
func kmcDigest(ep *kmcEpisode) string {
	var all []lattice.Coord
	for _, s := range ep.sites {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		return a.B < b.B
	})
	return digestOf(fmt.Sprintf("sites=%v events=%d t=%x", all, ep.events, math.Float64bits(ep.mcTime)))
}

func runKMCAnneal(p params) (*report, error) {
	rep := &report{}
	var tr *tracer
	var root liveSpan
	if p.trace {
		tr = newTracer()
		root = tr.begin("run", "perfbench", 0, -1, "")
	}
	var cycleMS []float64
	var eps []*kmcEpisode
	start := time.Now()
	for len(eps) == 0 || time.Since(start) < p.budget {
		esp := tr.begin("episode", "perfbench", root.id(), -1, "")
		ep, err := runKMCEpisode(kmcAnnealConfig(p.seed, len(eps)), kmcEpisodeCycles, tr, esp.id())
		if err != nil {
			return nil, err
		}
		rep.attempted++
		checkKMCEpisode(rep, ep)
		if len(eps) == 0 {
			rep.digest = kmcDigest(ep)
		}
		esp.end()
		eps = append(eps, ep)
		rep.setupS = append(rep.setupS, ep.setupS)
		cycleMS = append(cycleMS, ep.cycleMS...)
	}
	root.end()

	// Per-episode statistics, then their median over episodes.
	blocks := make([][]float64, len(eps))
	rates := make([]float64, len(eps))
	for i, ep := range eps {
		blocks[i] = ep.cycleMS
		rates[i] = float64(ep.events) / (sum(ep.cycleMS) / 1e3)
	}
	rep.workPerS = median(rates)
	rep.unitP50MS = median(perBlock(blocks, 0.5))
	rep.own = []named{
		{"setup_s", median(rep.setupS), "s"},
		{"kmc_events_per_s", rep.workPerS, "events/s"},
		{"kmc_cycle_ms_p50", rep.unitP50MS, "ms"},
		{"kmc_cycle_ms_p90", median(perBlock(blocks, 0.9)), "ms"},
		{"kmc_cycle_ms_p99", percentile(cycleMS, 0.99), "ms"},
		{"kmc_cycles", float64(len(cycleMS)), "count"},
		{"kmc_vacancies", float64(eps[0].vac0), "count"},
	}
	if p.trace {
		rep.tr = tr
		rep.layers = kmcLayers(eps, tr)
	}
	return rep, nil
}

// kmcLayers derives kmc-anneal's per-layer metrics from the traced
// episodes and adds the cycle phases to the trace table.
func kmcLayers(eps []*kmcEpisode, tr *tracer) map[string]float64 {
	ranks := len(eps[0].regs)
	var cycles, allocs, events float64
	sector := make([]float64, ranks)
	sum := map[string]float64{}
	var p2pMsgs, collMsgs float64
	for _, ep := range eps {
		cycles += float64(len(ep.cycleMS))
		allocs += float64(ep.allocs)
		events += float64(ep.events)
		for r, reg := range ep.regs {
			s := snapshotOf(reg)
			s.addTotals(sum)
			sector[r] += float64(s.ns("kmc/sector"))
			p2pMsgs += float64(ep.mpi1[r].count("mpi/p2p/msgs-sent") - ep.mpi0[r].count("mpi/p2p/msgs-sent"))
			collMsgs += float64(ep.mpi1[r].count("mpi/coll/msgs-sent") - ep.mpi0[r].count("mpi/coll/msgs-sent"))
		}
	}
	perCycleMS := func(timer string) float64 { return sum[timer] / float64(ranks) / cycles / 1e6 }
	for _, name := range []string{"kmc/sync", "kmc/sector", "kmc/ghost/flush"} {
		tr.addPhase(phase{Name: name, Layer: "kmc", Parent: "kmc.State.Cycle",
			TotalNS: int64(sum[name] / float64(ranks)), Count: int64(sum[name+"#count"])})
	}
	return map[string]float64{
		"kmc.events_per_cycle":      events / cycles,
		"kmc.sector_ms_per_cycle":   perCycleMS("kmc/sector"),
		"kmc.sync_ms_per_cycle":     perCycleMS("kmc/sync"),
		"kmc.flush_ms_per_cycle":    perCycleMS("kmc/ghost/flush"),
		"kmc.dirty_bytes_per_event": sum["kmc/ghost/dirty-bytes"] / math.Max(events, 1),
		"kmc.allocs_per_cycle":      allocs / cycles,
		"kmc.imbalance":             imbalance(sector),
		"mpi.p2p_msgs_per_cycle":    p2pMsgs / cycles,
		"mpi.coll_msgs_per_cycle":   collMsgs / cycles,
	}
}
