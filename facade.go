package mdkmc

import (
	"fmt"
	"math"
	"reflect"

	"mdkmc/internal/cluster"
	"mdkmc/internal/couple"
	"mdkmc/internal/kmc"
	"mdkmc/internal/lattice"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
	"mdkmc/internal/units"
)

// Re-exported configuration and option types. The aliases keep the public
// API in one import while the implementations live in internal packages.
type (
	// MDConfig configures a Molecular Dynamics run (see md.Config). The
	// Workers field selects the per-rank force-pass parallelism (0 =
	// GOMAXPROCS, 1 = serial reference); every setting produces
	// bit-identical results, so it is purely a speed knob.
	MDConfig = md.Config
	// PKA configures the primary knock-on atom of a cascade.
	PKA = md.PKA
	// Berendsen configures the equilibration thermostat.
	Berendsen = md.Berendsen
	// KMCConfig configures a Kinetic Monte Carlo run (see kmc.Config).
	KMCConfig = kmc.Config
	// Protocol selects the KMC ghost-communication strategy.
	Protocol = kmc.Protocol
	// CoupledConfig configures the full MD→KMC pipeline.
	CoupledConfig = couple.Config
	// CoupledResult is the full-pipeline result.
	CoupledResult = couple.Result
	// CampaignSpec configures the high-dose damage-accumulation campaign
	// driver (CoupledConfig.Campaign; see RunCampaign).
	CampaignSpec = couple.CampaignSpec
	// CampaignResult is the campaign-mode result: dose ledger, final defect
	// population, clustering analysis.
	CampaignResult = couple.CampaignResult
	// Spectrum is a discrete PKA recoil-energy distribution (LoadSpectrum).
	Spectrum = couple.Spectrum
	// ClusterAnalysis summarizes vacancy clustering.
	ClusterAnalysis = cluster.Analysis
	// CommStats counts messages and bytes exchanged.
	CommStats = mpi.Stats
	// Coord identifies a lattice site.
	Coord = lattice.Coord
	// Checkpoint configures periodic snapshots and restart.
	Checkpoint = couple.Checkpoint
	// Manifest describes one committed snapshot (see LatestCheckpoint).
	Manifest = couple.Manifest
	// Topology records the Cartesian decomposition a snapshot was written
	// under; restarts onto a different topology re-shard (DESIGN.md §14).
	Topology = couple.Topology
	// Rebalance configures the telemetry-calibrated dynamic load balancer.
	Rebalance = couple.Rebalance
	// Fault schedules an injected rank failure for recovery testing.
	Fault = mpi.Fault
	// InjectedFault is the error a fault-killed run returns (errors.As).
	InjectedFault = mpi.InjectedFault
	// TelemetryOptions configures the runtime observability layer: JSONL
	// flush, Prometheus-style HTTP exposition, flush cadence.
	TelemetryOptions = telemetry.Options
	// TelemetryReport is the end-of-run per-phase report, every metric
	// min/mean/max-aggregated across ranks.
	TelemetryReport = telemetry.Report
	// Preemptor carries an asynchronous checkpoint-and-stop request into a
	// run (WithPreemption, or CoupledConfig.Preempt for coupled/campaign
	// runs). See DESIGN.md §16.
	Preemptor = couple.Preemptor
)

// ErrPreempted is returned by a run stopped by a Preemptor after committing
// a resumable snapshot; test with errors.Is and resume via Checkpoint.Restart.
var ErrPreempted = couple.ErrPreempted

// runOpts collects the per-run options of the checkpointed entry points.
type runOpts struct {
	faults    []Fault
	telemetry TelemetryOptions
	preempt   *Preemptor
}

// RunOption customizes a Run*Checkpointed call.
type RunOption func(*runOpts)

// WithFaults schedules injected rank failures (in addition to any plan in
// MDKMC_FAULT) for recovery testing.
func WithFaults(faults ...Fault) RunOption {
	return func(o *runOpts) { o.faults = append(o.faults, faults...) }
}

// WithTelemetry attaches the observability layer to the run: per-rank phase
// spans and comm counters, periodic JSONL flush, optional HTTP exposition,
// and a measured end-of-run report in the result's Telemetry field.
// Telemetry never perturbs the trajectory — results are bit-identical to a
// run without it.
func WithTelemetry(opts TelemetryOptions) RunOption {
	return func(o *runOpts) { o.telemetry = opts }
}

// WithPreemption arms checkpoint-backed eviction: when p.Request is called
// from another goroutine, the run stops at its next step/cycle boundary,
// writes one final snapshot through the checkpoint coordinator (when one is
// configured), and returns ErrPreempted. Resume the job by re-running the
// same configuration with Checkpoint.Restart — on the same topology the
// continuation is bit-identical; on a different one it re-shards elastically.
func WithPreemption(p *Preemptor) RunOption {
	return func(o *runOpts) { o.preempt = p }
}

func applyRunOptions(opts []RunOption) runOpts {
	var o runOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Fault-injection points understood by Fault.Point, plus the environment
// variable holding an out-of-band fault plan ("point:rank:step,...").
const (
	FaultPointMDStep           = mpi.PointMDStep
	FaultPointKMCCycle         = mpi.PointKMCCycle
	FaultPointCheckpointCommit = mpi.PointCheckpointCommit
	FaultEnvVar                = mpi.EnvFault
)

// ParseFaults parses a comma-separated "point:rank:step" fault plan, the
// same syntax the MDKMC_FAULT environment variable accepts.
func ParseFaults(s string) ([]Fault, error) { return mpi.ParseFaults(s) }

// KMC communication protocols (paper §2.2.1).
const (
	ProtocolTraditional      = kmc.Traditional
	ProtocolOnDemand         = kmc.OnDemand
	ProtocolOnDemandOneSided = kmc.OnDemandOneSided
)

// DefaultMDConfig returns the paper's iron setup at laptop scale.
func DefaultMDConfig() MDConfig { return md.DefaultConfig() }

// DefaultKMCConfig returns the paper's KMC setup at laptop scale.
func DefaultKMCConfig() KMCConfig { return kmc.DefaultConfig() }

// MDResult summarizes an MD run.
type MDResult struct {
	Atoms        int
	Steps        int
	Kinetic      float64 // eV
	Potential    float64 // eV
	Temperature  float64 // K
	Vacancies    int
	VacancySites []Coord
	Comm         CommStats
	Clusters     ClusterAnalysis
	// Telemetry is the measured per-phase report (nil unless the run was
	// started with WithTelemetry and enabled options).
	Telemetry *TelemetryReport
}

// prepareCheckpoint resolves the restart manifest and coordinator for a
// single-stage checkpointed run. A nil coordinator (ck.Dir empty) disables
// snapshots; a nil manifest means a fresh start.
func prepareCheckpoint(ck Checkpoint, hash, stage string, ranks int) (*couple.Coordinator, *Manifest, error) {
	if ck.Dir == "" {
		return nil, nil, nil
	}
	var man *Manifest
	var err error
	if ck.Restart {
		if man, err = couple.Latest(ck.Dir, hash); err != nil {
			return nil, nil, err
		}
	}
	co, err := couple.NewCoordinator(ck, hash)
	if err != nil {
		return nil, nil, err
	}
	if man != nil && man.Stage != stage {
		return nil, nil, fmt.Errorf("mdkmc: checkpoint holds a %q-stage snapshot, this is a %s run", man.Stage, stage)
	}
	// A rank-count mismatch is no longer an error: the manifest records the
	// source topology and the restore path re-shards onto this run's grid
	// (DESIGN.md §14).
	return co, man, nil
}

// RunMD builds the in-process world for cfg.Grid, advances cfg.Steps MD
// steps on every rank, and returns the merged result.
func RunMD(cfg MDConfig) (*MDResult, error) { return RunMDCheckpointed(cfg, Checkpoint{}) }

// RunMDCheckpointed is RunMD with periodic snapshots and restart: with
// ck.Dir set, all ranks are snapshotted every ck.Every steps, and ck.Restart
// resumes from the newest valid snapshot, bit-identical to an uninterrupted
// run. Options inject faults (WithFaults, plus any in MDKMC_FAULT) and
// attach telemetry (WithTelemetry).
func RunMDCheckpointed(cfg MDConfig, ck Checkpoint, opts ...RunOption) (*MDResult, error) {
	o := applyRunOptions(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	co, man, err := prepareCheckpoint(ck, cfg.Hash(), couple.StageMD, cfg.Ranks())
	if err != nil {
		return nil, err
	}
	envFaults, err := mpi.FaultsFromEnv()
	if err != nil {
		return nil, err
	}
	set, err := telemetry.NewSet(cfg.Ranks(), o.telemetry)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	co.AttachTelemetry(set)
	res := &MDResult{Atoms: cfg.NumAtoms(), Steps: cfg.Steps}
	w := mpi.NewWorld(cfg.Ranks())
	w.InjectFault(o.faults...)
	w.InjectFault(envFaults...)
	runErr := w.RunE(func(c *mpi.Comm) error {
		reg := set.Rank(c.Rank())
		c.AttachTelemetry(reg)
		r, err := md.NewRank(cfg, c)
		if err != nil {
			return err
		}
		r.AttachTelemetry(reg)
		topo := couple.Topology{Grid: cfg.Grid, Cuts: r.Grid.Cuts()}
		start := 0
		if man != nil {
			srcGrid, err := man.Topology.SourceGrid(r.L)
			if err != nil {
				return err
			}
			if reflect.DeepEqual(srcGrid.Cuts(), r.Grid.Cuts()) {
				rc, err := man.Open(c.Rank())
				if err != nil {
					return err
				}
				err = r.Restore(rc)
				rc.Close()
				if err != nil {
					return err
				}
			} else if err := r.RestoreResharded(md.ShardSource{Grid: srcGrid, Open: man.Open}); err != nil {
				return err
			}
			start = man.Step
		}
		for i := start; i < cfg.Steps; i++ {
			r.Step()
			step := i + 1
			if co.Due(step) && step < cfg.Steps {
				if err := co.Snapshot(c, couple.StageMD, step, topo, nil, r.Save); err != nil {
					return err
				}
			}
			if c.Rank() == 0 && set.FlushDue(step) {
				if err := set.Flush(fmt.Sprintf("md-step-%d", step)); err != nil {
					return err
				}
			}
			c.FaultPoint(mpi.PointMDStep, step)
			// Preemption boundary: the guard is rank-uniform, so every
			// rank enters the collective Poll in lockstep; the final step
			// falls through to normal completion instead of evicting.
			if o.preempt != nil && step < cfg.Steps && o.preempt.Poll(c) {
				if co != nil {
					if err := co.Snapshot(c, couple.StageMD, step, topo, nil, r.Save); err != nil {
						return err
					}
				}
				return couple.ErrPreempted
			}
		}
		ke, pe := r.TotalEnergy()
		temp := r.Temperature()
		vac := r.GlobalVacancyCount()
		sites := gatherCoords(c, r.OwnedVacancySites())
		if c.Rank() == 0 {
			res.Kinetic = ke
			res.Potential = pe
			res.Temperature = temp
			res.Vacancies = vac
			res.VacancySites = sites
			res.Comm = c.Stats()
			res.Clusters = cluster.Vacancies(r.L, sites, 2)
		}
		// Collective end-of-run aggregation; runs after Comm is captured so
		// its own traffic stays out of both.
		if set != nil {
			rep, err := telemetry.Aggregate(c, reg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res.Telemetry = rep
				if err := set.WriteReport(rep); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// KMCResult summarizes a KMC run.
type KMCResult struct {
	Sites        int
	Vacancies    int
	Cycles       int
	Events       int
	MCTime       float64 // seconds of Monte Carlo time
	RealTimeDays float64 // via the temporal-scale formula
	VacancySites []Coord
	Comm         CommStats
	Clusters     ClusterAnalysis
	// Telemetry is the measured per-phase report (nil unless the run was
	// started with WithTelemetry and enabled options).
	Telemetry *TelemetryReport
}

// RunKMC builds the in-process world for cfg.Grid and runs cycles KMC
// cycles (or until tThreshold MC seconds if positive).
func RunKMC(cfg KMCConfig, cycles int, tThreshold float64) (*KMCResult, error) {
	return RunKMCCheckpointed(cfg, cycles, tThreshold, Checkpoint{})
}

// RunKMCCheckpointed is RunKMC with periodic snapshots and restart: with
// ck.Dir set, all ranks are snapshotted every ck.Every cycles, and
// ck.Restart resumes from the newest valid snapshot, bit-identical to an
// uninterrupted run. Options inject faults (WithFaults, plus any in
// MDKMC_FAULT) and attach telemetry (WithTelemetry).
func RunKMCCheckpointed(cfg KMCConfig, cycles int, tThreshold float64, ck Checkpoint, opts ...RunOption) (*KMCResult, error) {
	o := applyRunOptions(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tThreshold <= 0 {
		tThreshold = math.Inf(1)
	}
	co, man, err := prepareCheckpoint(ck, couple.KMCRunHash(&cfg, cycles, tThreshold), couple.StageKMC, cfg.Ranks())
	if err != nil {
		return nil, err
	}
	envFaults, err := mpi.FaultsFromEnv()
	if err != nil {
		return nil, err
	}
	set, err := telemetry.NewSet(cfg.Ranks(), o.telemetry)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	co.AttachTelemetry(set)
	res := &KMCResult{Sites: cfg.NumSites()}
	w := mpi.NewWorld(cfg.Ranks())
	w.InjectFault(o.faults...)
	w.InjectFault(envFaults...)
	runErr := w.RunE(func(c *mpi.Comm) error {
		reg := set.Rank(c.Rank())
		c.AttachTelemetry(reg)
		st, err := kmc.NewState(cfg, c)
		if err != nil {
			return err
		}
		st.AttachTelemetry(reg)
		topo := couple.Topology{Grid: cfg.Grid, Cuts: st.Grid.Cuts()}
		if man != nil {
			srcGrid, err := man.Topology.SourceGrid(st.L)
			if err != nil {
				return err
			}
			if reflect.DeepEqual(srcGrid.Cuts(), st.Grid.Cuts()) {
				rc, err := man.Open(c.Rank())
				if err != nil {
					return err
				}
				err = st.Restore(rc)
				rc.Close()
				if err != nil {
					return err
				}
			} else if err := st.RestoreResharded(kmc.ShardSource{Grid: srcGrid, Open: man.Open}); err != nil {
				return err
			}
		}
		for st.Time < tThreshold && st.Cycles < cycles {
			st.Cycle()
			if co.Due(st.Cycles) && st.Cycles < cycles {
				if err := co.Snapshot(c, couple.StageKMC, st.Cycles, topo, nil, st.Save); err != nil {
					return err
				}
			}
			if c.Rank() == 0 && set.FlushDue(st.Cycles) {
				if err := set.Flush(fmt.Sprintf("kmc-cycle-%d", st.Cycles)); err != nil {
					return err
				}
			}
			c.FaultPoint(mpi.PointKMCCycle, st.Cycles)
			// Preemption boundary (rank-uniform guard; see the MD loop).
			if o.preempt != nil && st.Cycles < cycles && st.Time < tThreshold && o.preempt.Poll(c) {
				if co != nil {
					if err := co.Snapshot(c, couple.StageKMC, st.Cycles, topo, nil, st.Save); err != nil {
						return err
					}
				}
				return couple.ErrPreempted
			}
		}
		tot := c.Allreduce(mpi.Sum, float64(st.Events))
		vac := st.GlobalVacancyCount()
		sites := gatherCoords(c, st.VacancySites())
		if c.Rank() == 0 {
			res.Vacancies = vac
			res.Cycles = st.Cycles
			res.Events = int(tot[0] + 0.5)
			res.MCTime = st.Time
			cMC := float64(vac) / float64(cfg.NumSites())
			res.RealTimeDays = couple.TemporalScaleDays(st.Time, cMC,
				units.VacancyFormationEnergyFe, cfg.Temperature)
			res.VacancySites = sites
			res.Comm = c.Stats()
			res.Clusters = cluster.Vacancies(st.L, sites, 2)
		}
		// Collective end-of-run aggregation; runs after Comm is captured so
		// its own traffic stays out of both.
		if set != nil {
			rep, err := telemetry.Aggregate(c, reg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res.Telemetry = rep
				if err := set.WriteReport(rep); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// LatestCheckpoint returns the newest valid snapshot manifest under dir for
// the configuration digest hash, or (nil, nil) when dir holds none.
func LatestCheckpoint(dir, hash string) (*Manifest, error) { return couple.Latest(dir, hash) }

// ChooseGrid picks a near-cubic px×py×pz process grid for ranks over an
// nx×ny×nz-cell box, subject to every slab being at least minWidth cells
// wide (the consumer's ghost constraint). It is the topology chooser behind
// the CLIs' -restart-ranks flag: the elastic restart path re-shards the
// checkpoint onto the grid this returns.
func ChooseGrid(cells [3]int, ranks, minWidth int) ([3]int, error) {
	l := lattice.New(cells[0], cells[1], cells[2], 1)
	px, py, pz, err := lattice.ChooseGrid(l, ranks, minWidth)
	if err != nil {
		return [3]int{}, err
	}
	return [3]int{px, py, pz}, nil
}

// RunCoupled executes the full MD→KMC pipeline (paper §2).
func RunCoupled(cfg CoupledConfig) (*CoupledResult, error) { return couple.Run(cfg) }

// RunCampaign executes a high-dose damage-accumulation campaign: repeated
// spectrum-drawn multi-recoil cascades, each advancing the dose by a fixed
// NRT-dpa increment, with the accumulated defect population handed to the
// coarse KMC/OKMC stage every iteration. Enabled by cfg.Campaign.Iters > 0;
// restartable end-to-end through cfg.Checkpoint.
func RunCampaign(cfg CoupledConfig) (*CampaignResult, error) { return couple.RunCampaign(cfg) }

// LoadSpectrum reads a PKA recoil-energy spectrum file: one "energy_eV
// [weight]" pair per line, '#' comments.
func LoadSpectrum(path string) (*Spectrum, error) { return couple.LoadSpectrum(path) }

// TemporalScaleDays evaluates the paper's temporal-scale formula
// t_real = t_threshold·C_MC/C_real in days (19.2 for the headline run).
func TemporalScaleDays(tThreshold, cMC, temperature float64) float64 {
	return couple.TemporalScaleDays(tThreshold, cMC,
		units.VacancyFormationEnergyFe, temperature)
}

// AnalyzeClusters groups (wrapped) vacancy sites of an nx×ny×nz-cell box
// into clusters joined within `shells` neighbor shells.
func AnalyzeClusters(cells [3]int, a float64, sites []Coord, shells int) ClusterAnalysis {
	l := lattice.New(cells[0], cells[1], cells[2], a)
	return cluster.Vacancies(l, sites, shells)
}

// RenderVacancies projects vacancy sites onto an ASCII XY map (the
// repository's stand-in for the paper's Figure 17 visualizations).
func RenderVacancies(cells [3]int, a float64, sites []Coord, width, height int) string {
	l := lattice.New(cells[0], cells[1], cells[2], a)
	return cluster.Render(l, sites, width, height)
}

// gatherCoords collects every rank's coordinates on all ranks.
func gatherCoords(c *mpi.Comm, own []lattice.Coord) []lattice.Coord {
	var p []byte
	for _, s := range own {
		p = append(p,
			byte(s.X), byte(s.X>>8), byte(s.X>>16), byte(s.X>>24),
			byte(s.Y), byte(s.Y>>8), byte(s.Y>>16), byte(s.Y>>24),
			byte(s.Z), byte(s.Z>>8), byte(s.Z>>16), byte(s.Z>>24),
			byte(s.B))
	}
	var out []lattice.Coord
	for _, buf := range c.Allgather(p) {
		for off := 0; off+13 <= len(buf); off += 13 {
			rd := func(o int) int32 {
				return int32(buf[off+o]) | int32(buf[off+o+1])<<8 |
					int32(buf[off+o+2])<<16 | int32(buf[off+o+3])<<24
			}
			out = append(out, lattice.Coord{X: rd(0), Y: rd(4), Z: rd(8), B: int8(buf[off+12])})
		}
	}
	return out
}
