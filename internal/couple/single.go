package couple

// The standalone single-stage runs: an MD run and a KMC run, each
// checkpointed, restartable and preemptible through the same harness as the
// coupled pipeline and the campaign driver (harness.go).

import (
	"math"

	"mdkmc/internal/cluster"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// MDResult summarizes a standalone MD run.
type MDResult struct {
	Atoms        int
	Steps        int
	Kinetic      float64 // eV
	Potential    float64 // eV
	Temperature  float64 // K
	Vacancies    int
	VacancySites []lattice.Coord
	Comm         mpi.Stats
	Clusters     cluster.Analysis
	// Telemetry is the measured per-phase report (nil unless the run's
	// telemetry options were enabled).
	Telemetry *telemetry.Report
}

// RunMD builds the in-process world for cfg.Grid, advances cfg.Steps MD
// steps on every rank, and returns the merged result. With ck.Dir set, all
// ranks are snapshotted every ck.Every steps, and ck.Restart resumes from the
// newest valid snapshot, bit-identical to an uninterrupted run. faults is
// the injected-failure plan (MDKMC_FAULT appends to it), tel the telemetry
// options, and preempt, when non-nil, lets another goroutine evict the run
// at its next step boundary (ErrPreempted).
func RunMD(cfg md.Config, ck Checkpoint, faults []mpi.Fault, tel telemetry.Options, preempt *Preemptor) (*MDResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &MDResult{Atoms: cfg.NumAtoms(), Steps: cfg.Steps}
	rep, err := execute(cfg.Ranks(), cfg.Hash(), runOpts{ck, faults, tel, preempt}, []string{StageMD}, func(h *harness, c *mpi.Comm, reg *telemetry.Registry) error {
		r, err := md.NewRank(cfg, c)
		if err != nil {
			return err
		}
		r.AttachTelemetry(reg)
		start := 0
		if h.man != nil {
			if err := restore(c, h.man, r.Grid, r); err != nil {
				return err
			}
			start = h.man.Step
		}
		loop := stageLoop{stage: StageMD, point: mpi.PointMDStep, flush: "md-step",
			topo: Topology{Grid: cfg.Grid, Cuts: r.Grid.Cuts()}, save: r.Save}
		for i := start; i < cfg.Steps; i++ {
			r.Step()
			if err := h.boundary(c, &loop, i+1, i+1 < cfg.Steps); err != nil {
				return err
			}
		}
		ke, pe := r.TotalEnergy()
		temp := r.Temperature()
		vac := r.GlobalVacancyCount()
		sites := gatherSites(c, r.OwnedVacancySites())
		if c.Rank() == 0 {
			res.Kinetic = ke
			res.Potential = pe
			res.Temperature = temp
			res.Vacancies = vac
			res.VacancySites = sites
			res.Comm = c.Stats()
			res.Clusters = cluster.Vacancies(r.L, sites, 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Telemetry = rep
	return res, nil
}

// KMCResult summarizes a standalone KMC run.
type KMCResult struct {
	Sites        int
	Vacancies    int
	Cycles       int
	Events       int
	MCTime       float64 // seconds of Monte Carlo time
	RealTimeDays float64 // via the temporal-scale formula
	VacancySites []lattice.Coord
	Comm         mpi.Stats
	Clusters     cluster.Analysis
	// Telemetry is the measured per-phase report (nil unless the run's
	// telemetry options were enabled).
	Telemetry *telemetry.Report
}

// RunKMC builds the in-process world for cfg.Grid and runs KMC cycles until
// cycles cycles or tThreshold MC seconds (if positive), whichever comes
// first. Checkpointing, faults, telemetry and preemption work as in RunMD,
// at cycle boundaries.
func RunKMC(cfg kmc.Config, cycles int, tThreshold float64, ck Checkpoint, faults []mpi.Fault, tel telemetry.Options, preempt *Preemptor) (*KMCResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tThreshold <= 0 {
		tThreshold = math.Inf(1)
	}
	res := &KMCResult{Sites: cfg.NumSites()}
	rep, err := execute(cfg.Ranks(), KMCRunHash(&cfg, cycles, tThreshold), runOpts{ck, faults, tel, preempt}, []string{StageKMC}, func(h *harness, c *mpi.Comm, reg *telemetry.Registry) error {
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			return err
		}
		st.AttachTelemetry(reg)
		if h.man != nil {
			if err := restore(c, h.man, st.Grid, st); err != nil {
				return err
			}
		}
		loop := stageLoop{stage: StageKMC, point: mpi.PointKMCCycle, flush: "kmc-cycle",
			topo: Topology{Grid: cfg.Grid, Cuts: st.Grid.Cuts()}, save: st.Save}
		more := func() bool { return st.Time < tThreshold && st.Cycles < cycles }
		for more() {
			st.Cycle()
			if err := h.boundary(c, &loop, st.Cycles, more()); err != nil {
				return err
			}
		}
		tot := c.Allreduce(mpi.Sum, float64(st.Events))
		vac := st.GlobalVacancyCount()
		sites := gatherSites(c, st.VacancySites())
		if c.Rank() == 0 {
			res.Vacancies = vac
			res.Cycles = st.Cycles
			res.Events = int(tot[0] + 0.5)
			res.MCTime = st.Time
			cMC := float64(vac) / float64(cfg.NumSites())
			res.RealTimeDays = TemporalScaleDays(st.Time, cMC,
				units.VacancyFormationEnergyFe, cfg.Temperature)
			res.VacancySites = sites
			res.Comm = c.Stats()
			res.Clusters = cluster.Vacancies(st.L, sites, 2)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Telemetry = rep
	return res, nil
}
