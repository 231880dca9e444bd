// Package couple drives the multiscale MD→KMC pipeline (paper §2): MD
// simulates the defect generation of a cascade collision over ~50 ps and
// outputs vacancy coordinates; KMC continues the defect evolution and
// clustering at a vastly larger temporal scale; the temporal-scale formula
// t_real = t_threshold · C_MC / C_real maps Monte Carlo time to experiment
// time (paper §3, evaluated as 19.2 days for the headline run).
package couple

import (
	"fmt"
	"math"

	"mdkmc/internal/cluster"
	"mdkmc/internal/digest"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// TemporalScale evaluates t_real = tThreshold · cMC / cReal with
// C_real = exp(-Ev / (kB·T)), returning the real-time span in seconds.
func TemporalScale(tThreshold, cMC, ev, temperature float64) float64 {
	cReal := math.Exp(-ev / (units.Boltzmann * temperature))
	return tThreshold * cMC / cReal
}

// TemporalScaleDays is TemporalScale expressed in days.
func TemporalScaleDays(tThreshold, cMC, ev, temperature float64) float64 {
	return TemporalScale(tThreshold, cMC, ev, temperature) / 86400
}

// Config describes one coupled run. The MD stage uses Config.MD with its
// own step count; the KMC stage inherits the box geometry and receives the
// MD vacancies.
type Config struct {
	MD md.Config
	// KMCCycles bounds the KMC stage (the laptop-scale stand-in for the
	// paper's t_threshold loop).
	KMCCycles int
	// TThreshold is the MC time threshold (s); the stage stops at whichever
	// of KMCCycles/TThreshold comes first.
	TThreshold float64
	// Protocol is the KMC stage's ghost-synchronization strategy; all three
	// yield the same trajectory (DESIGN.md §7), so Hash leaves it out.
	Protocol kmc.Protocol

	// Campaign configures the high-dose damage-accumulation driver
	// (campaign.go); the zero value leaves Run's single-cascade pipeline
	// unchanged. Only RunCampaign consults it.
	Campaign CampaignSpec

	// Checkpoint configures periodic snapshots and restart (checkpoint.go).
	// A restart may target a different topology than the snapshot's writer:
	// the manifest records the source decomposition and the re-shard loader
	// re-slices the global state for cfg.MD.Grid (DESIGN.md §14).
	Checkpoint Checkpoint
	// Rebalance configures the telemetry-calibrated dynamic load balancer
	// (rebalance.go). A topology knob excluded from Hash.
	Rebalance Rebalance
	// Faults is the injected-failure plan for recovery testing; the
	// MDKMC_FAULT environment variable appends to it.
	Faults []mpi.Fault

	// Preempt, when non-nil, lets another goroutine request checkpoint-backed
	// eviction: the run stops at its next step/cycle boundary, commits one
	// final snapshot through Checkpoint, and returns ErrPreempted
	// (preempt.go). Runtime machinery like Faults — excluded from Hash, so
	// the evicted run resumes under the same configuration digest.
	Preempt *Preemptor

	// Telemetry configures the observability layer (internal/telemetry). It
	// is a pure speed/observability knob like MD.Workers: Hash excludes it,
	// and an enabled run is bit-identical to a disabled one (test-gated).
	Telemetry telemetry.Options
}

// kmcConfig derives the KMC stage configuration from the MD stage (box
// geometry, temperature, seed). The vacancy list is filled in later from
// the MD output — it is deliberately excluded here so Hash is identical
// before and after the handoff.
func (cfg *Config) kmcConfig() kmc.Config {
	kcfg := kmc.DefaultConfig()
	kcfg.Cells = cfg.MD.Cells
	kcfg.Grid = cfg.MD.Grid
	kcfg.A = cfg.MD.A
	kcfg.Temperature = cfg.MD.Temperature
	if kcfg.Temperature <= 0 {
		kcfg.Temperature = 600
	}
	kcfg.Seed = cfg.MD.Seed + 1
	kcfg.Protocol = cfg.Protocol
	kcfg.VacancyConcentration = 0
	return kcfg
}

// normalize fills the stop-condition defaults. Run applies it before
// computing the config hash, and Hash applies it to its own copy, so both
// digest the same effective configuration.
func (cfg *Config) normalize() {
	if cfg.KMCCycles <= 0 {
		cfg.KMCCycles = 50
	}
	if cfg.TThreshold <= 0 {
		cfg.TThreshold = math.Inf(1)
	}
}

// Hash digests the trajectory-determining half of the coupled run as one
// value: the MD physics, the derived KMC physics, the stop conditions and
// the campaign spec, the last three after default normalization so zero
// values hash like their defaults. Everything else in Config is runtime
// machinery — checkpoint cadence, rebalancing, fault plans, preemption,
// telemetry and the bit-identical Protocol — and must not pin a snapshot to
// the schedule that produced it.
func (cfg *Config) Hash() string {
	n := *cfg
	n.normalize()
	n.Campaign.normalize(n.MD.A)
	return digest.Of(struct {
		MD         md.Physics
		KMC        kmc.Physics
		KMCCycles  int
		TThreshold float64
		Campaign   CampaignSpec
	}{n.MD.Physics, n.kmcConfig().Physics, n.KMCCycles, n.TThreshold, n.Campaign})
}

// KMCRunHash is the checkpoint digest of a standalone KMC run: the KMC
// physics plus its stop conditions, since resuming with a different bound
// is a different run. A non-positive tThreshold means no threshold.
func KMCRunHash(cfg *kmc.Config, cycles int, tThreshold float64) string {
	if tThreshold <= 0 {
		tThreshold = math.Inf(1)
	}
	return digest.Of(struct {
		KMC        kmc.Physics
		Cycles     int
		TThreshold float64
	}{cfg.Physics, cycles, tThreshold})
}

// Result summarizes a coupled run.
type Result struct {
	AtomCount    int
	VacanciesMD  int // vacancies generated by the cascade
	VacanciesKMC int // vacancies after evolution (conserved)
	MDSteps      int
	KMCCycles    int
	KMCEvents    int
	MCTime       float64 // accumulated MC seconds
	RealTimeDays float64 // via the temporal-scale formula
	BeforeKMC    cluster.Analysis
	AfterKMC     cluster.Analysis
	BeforeSites  []lattice.Coord
	AfterSites   []lattice.Coord
	CommStats    mpi.Stats
	// Telemetry is the measured per-phase, per-rank report (nil when the
	// run's telemetry options were disabled).
	Telemetry *telemetry.Report
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf(
		"atoms=%d md_steps=%d vacancies=%d kmc_cycles=%d events=%d mc_time=%.3gs real=%.3g days\n  before: %v\n  after:  %v",
		r.AtomCount, r.MDSteps, r.VacanciesMD, r.KMCCycles, r.KMCEvents,
		r.MCTime, r.RealTimeDays, r.BeforeKMC, r.AfterKMC)
}

// Run executes the coupled pipeline on an in-process world sized for the MD
// grid and returns the merged result. It is the whole-pipeline entry point
// used by the examples and benchmarks.
//
// Rank failures — a failed stage constructor, an internal invariant panic,
// or an injected fault — surface as an ordinary error: the world aborts,
// surviving ranks unwind, and the first cause is returned. With
// Checkpoint.Dir set, snapshots of the active stage are written every
// Checkpoint.Every steps/cycles, and Checkpoint.Restart resumes from the
// newest valid one; the resumed trajectory is bit-identical to an
// uninterrupted run.
func Run(cfg Config) (*Result, error) {
	if err := cfg.MD.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()

	res := &Result{AtomCount: cfg.MD.NumAtoms(), MDSteps: cfg.MD.Steps}
	rep, err := execute(cfg.MD.Ranks(), cfg.Hash(), cfg.runOpts(), []string{StageMD, StageKMC}, func(h *harness, c *mpi.Comm, reg *telemetry.Registry) error {
		man := h.man
		// Stage 1: MD cascade — skipped entirely when resuming past the
		// handoff; the manifest then carries the MD stage's summary.
		var l *lattice.Lattice
		var vacMD int
		var allBefore []lattice.Coord
		kcfg := cfg.kmcConfig()
		restoringKMC := man != nil && man.Stage == StageKMC
		if restoringKMC {
			l = lattice.New(cfg.MD.Cells[0], cfg.MD.Cells[1], cfg.MD.Cells[2], cfg.MD.A)
			if man.MD == nil {
				return fmt.Errorf("couple: KMC-stage checkpoint lacks the MD summary")
			}
			vacMD = man.MD.Vacancies
			allBefore = man.MD.BeforeSites
		} else {
			rank, err := md.NewRank(cfg.MD, c)
			if err != nil {
				return err
			}
			rank.AttachTelemetry(reg)
			l = rank.L
			start := 0
			if man != nil { // man.Stage == StageMD
				if err := restore(c, man, rank.Grid, rank); err != nil {
					return err
				}
				start = man.Step
			}
			mdLoop := stageLoop{stage: StageMD, point: mpi.PointMDStep, flush: "md-step",
				topo: Topology{Grid: cfg.MD.Grid, Cuts: rank.Grid.Cuts()}, save: rank.Save}
			mdStage := reg.Timer("couple/md-stage").Begin()
			for i := start; i < cfg.MD.Steps; i++ {
				rank.Step()
				if err := h.boundary(c, &mdLoop, i+1, i+1 < cfg.MD.Steps); err != nil {
					mdStage.End()
					return err
				}
			}
			mdStage.End()
			vacMD = rank.GlobalVacancyCount()
			allBefore = gatherSites(c, rank.OwnedVacancySites())
			kcfg.Vacancies = globalIndices(rank.L, allBefore)
		}

		// Stage 2: hand the vacancy sites to KMC. The decomposition may
		// deviate from the uniform split: a KMC-stage restart adopts the
		// snapshot's topology when the grid matches (byte-exact path) and
		// re-shards otherwise, and the rebalancer fits slab cuts to the
		// defect distribution at the handoff and, with Rebalance.Every set,
		// periodically as the defect cloud migrates.
		if restoringKMC && man.Topology.Grid == kcfg.Grid {
			kcfg.Cuts = man.Topology.Cuts
		} else if cfg.Rebalance.Handoff {
			cuts, err := fitCuts(l, kcfg.Grid, kcfg.GhostWidth(), allBefore, cfg.Rebalance.weight())
			if err != nil {
				return err
			}
			kcfg.Cuts = cuts
		}
		st, err := kmc.NewState(kcfg, c)
		if err != nil {
			return err
		}
		st.AttachTelemetry(reg)
		if restoringKMC {
			if err := restore(c, man, st.Grid, st); err != nil {
				return err
			}
		}
		kmcLoop := stageLoop{stage: StageKMC, point: mpi.PointKMCCycle, flush: "kmc-cycle",
			topo: Topology{Grid: kcfg.Grid, Cuts: st.Grid.Cuts()},
			md:   &MDSummary{Vacancies: vacMD, BeforeSites: allBefore}, save: st.Save}
		more := func() bool { return st.Time < cfg.TThreshold && st.Cycles < cfg.KMCCycles }
		kmcStage := reg.Timer("couple/kmc-stage").Begin()
		for more() {
			st.Cycle()
			if rb := cfg.Rebalance; rb.Every > 0 && st.Cycles%rb.Every == 0 && st.Cycles < cfg.KMCCycles {
				if st, err = rebalanceKMC(c, reg, st, kcfg, rb); err != nil {
					kmcStage.End()
					return err
				}
				kmcLoop.topo = Topology{Grid: kcfg.Grid, Cuts: st.Grid.Cuts()}
				kmcLoop.save = st.Save
			}
			if err := h.boundary(c, &kmcLoop, st.Cycles, more()); err != nil {
				kmcStage.End()
				return err
			}
		}
		kmcStage.End()
		totEvents := c.Allreduce(mpi.Sum, float64(st.Events))

		allAfter := gatherSites(c, st.VacancySites())
		vacKMC := st.GlobalVacancyCount()

		// Only rank 0 writes the result; RunE's WaitGroup orders the write
		// before the caller's read.
		if c.Rank() == 0 {
			res.VacanciesMD = vacMD
			res.VacanciesKMC = vacKMC
			res.KMCCycles = st.Cycles
			res.KMCEvents = int(totEvents[0] + 0.5)
			res.MCTime = st.Time
			res.BeforeSites = allBefore
			res.AfterSites = allAfter
			cMC := float64(vacKMC) / float64(l.NumSites())
			res.RealTimeDays = TemporalScaleDays(st.Time, cMC,
				units.VacancyFormationEnergyFe, kcfg.Temperature)
			res.BeforeKMC = cluster.Vacancies(l, allBefore, 2)
			res.AfterKMC = cluster.Vacancies(l, allAfter, 2)
			res.CommStats = c.Stats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Telemetry = rep
	return res, nil
}

// gatherSites collects every rank's (wrapped) sites on all ranks. It is a
// collective: every rank of c must call it in lockstep.
//
//mdvet:collective
func gatherSites(c *mpi.Comm, own []lattice.Coord) []lattice.Coord {
	var p []byte
	for _, s := range own {
		p = append(p, byte(s.X), byte(s.X>>8), byte(s.X>>16), byte(s.X>>24))
		p = append(p, byte(s.Y), byte(s.Y>>8), byte(s.Y>>16), byte(s.Y>>24))
		p = append(p, byte(s.Z), byte(s.Z>>8), byte(s.Z>>16), byte(s.Z>>24))
		p = append(p, byte(s.B))
	}
	all := c.Allgather(p)
	var out []lattice.Coord
	for _, buf := range all {
		for off := 0; off+13 <= len(buf); off += 13 {
			read := func(o int) int32 {
				return int32(buf[off+o]) | int32(buf[off+o+1])<<8 |
					int32(buf[off+o+2])<<16 | int32(buf[off+o+3])<<24
			}
			out = append(out, lattice.Coord{
				X: read(0), Y: read(4), Z: read(8), B: int8(buf[off+12]),
			})
		}
	}
	return out
}

// globalIndices converts wrapped coordinates to global site indices.
func globalIndices(l *lattice.Lattice, sites []lattice.Coord) []int {
	out := make([]int, len(sites))
	for i, c := range sites {
		out[i] = l.Index(c)
	}
	return out
}
