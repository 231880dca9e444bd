// Package kmc implements the atomistic Kinetic Monte Carlo engine that
// continues the damage simulation after MD: vacancies hop between lattice
// sites with rates k = ν·exp(-ΔE/kBT) derived from the EAM potential
// (paper §2.2), parallelized with the semirigorous synchronous sublattice
// method (8 sectors per subdomain) and either the traditional full-ghost
// exchange of SPPARKS/KMCLib or the paper's on-demand communication
// strategy (§2.2.1), in both its two-sided (probe) and one-sided (window)
// realizations.
package kmc

import (
	"fmt"
	"math"

	"mdkmc/internal/digest"
	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
)

// Protocol selects the ghost-synchronization strategy.
type Protocol int

// Protocols compared in the paper's Figures 12 and 13.
const (
	// Traditional exchanges the complete ghost region before and after
	// every sector (the SPPARKS/KMCLib static pattern).
	Traditional Protocol = iota
	// OnDemand sends only the sites actually affected by events, using
	// two-sided messages discovered with Probe; idle neighbors still send
	// zero-size messages so receives match.
	OnDemand
	// OnDemandOneSided sends affected sites through one-sided window puts,
	// eliminating the zero-size messages.
	OnDemandOneSided
)

func (p Protocol) String() string {
	switch p {
	case Traditional:
		return "traditional"
	case OnDemand:
		return "on-demand"
	case OnDemandOneSided:
		return "on-demand-1sided"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Physics is the trajectory-determining half of a Config. Hash digests it
// wholesale, so no field can be left out of the checkpoint digest.
type Physics struct {
	Cells [3]int
	A     float64

	Temperature float64 // K
	Nu          float64 // attempt frequency (1/s)
	Em          float64 // reference migration barrier (eV)

	// VacancyConcentration places vacancies at random lattice sites at
	// initialization (ignored when Vacancies is non-nil). The paper uses
	// 4.5e-5 and 2e-6.
	VacancyConcentration float64
	// Vacancies, when non-nil, lists the global site indices that start as
	// vacancies — the MD→KMC coupling input.
	Vacancies []int

	// CuConcentration places substitutional copper solutes at random sites
	// (the alloy path; enables the Cu-precipitation scenario).
	CuConcentration float64
	// CuSites, when non-nil, lists explicit copper site indices.
	CuSites []int
	// EmCu is the migration barrier of a vacancy-Cu exchange (eV); when
	// zero, Em is used. Copper migrates faster than iron in α-Fe, which is
	// what lets it precipitate on vacancy timescales.
	EmCu float64

	Seed uint64

	// DtFactor scales the synchronous cycle window dt = DtFactor / R_max;
	// ~1 event per subdomain per cycle at the default of 1.
	DtFactor float64
}

// Config describes a KMC run: the Physics that determines the trajectory
// plus the runtime fields that only decide how the work is laid out and
// communicated.
type Config struct {
	Physics

	// Grid is the process grid. Like Cuts it is a topology knob (DESIGN.md
	// §14): the checkpoint manifest records it and the re-shard loader
	// handles a change.
	Grid [3]int
	// Cuts, when a dimension is non-nil, are explicit slab boundaries of the
	// process grid (lattice.NewGridCuts) — set by the repartitioner to
	// concentrate ranks on the defect-dense region.
	Cuts [3][]int

	// Protocol is the ghost-synchronization strategy. All three yield the
	// same trajectory on every grid (DESIGN.md §7).
	Protocol Protocol

	// fullRescan disables the incremental event-rate cache and re-enumerates
	// every candidate hop from scratch at each selection — the slow
	// reference the in-package equivalence tests and benchmarks compare
	// against. Trajectories are bit-identical either way (DESIGN.md §8).
	fullRescan bool
}

// DefaultConfig returns the paper's KMC setup at laptop scale.
func DefaultConfig() Config {
	return Config{
		Physics: Physics{
			Cells:                [3]int{12, 12, 12},
			A:                    units.LatticeConstantFe,
			Temperature:          600,
			Nu:                   units.AttemptFrequency,
			Em:                   units.VacancyMigrationEnergyFe,
			VacancyConcentration: 4.5e-5,
			Seed:                 1,
			DtFactor:             1,
		},
		Grid:     [3]int{1, 1, 1},
		Protocol: OnDemand,
	}
}

// Validate reports configuration errors. Every float must be finite: the
// checks are written as conditions a valid value meets, which NaN fails.
func (c *Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Cells[d] <= 0 || c.Grid[d] <= 0 {
			return fmt.Errorf("kmc: non-positive cells %v or grid %v", c.Cells, c.Grid)
		}
	}
	if !positiveFinite(c.A) {
		return fmt.Errorf("kmc: lattice constant %v is not positive and finite", c.A)
	}
	if !positiveFinite(c.Temperature) {
		return fmt.Errorf("kmc: temperature %v is not positive and finite", c.Temperature)
	}
	if !positiveFinite(c.Nu) || !positiveFinite(c.Em) {
		return fmt.Errorf("kmc: rate parameters nu=%v em=%v are not positive and finite", c.Nu, c.Em)
	}
	if !(c.VacancyConcentration >= 0 && c.VacancyConcentration <= 0.5) {
		return fmt.Errorf("kmc: vacancy concentration %v out of range", c.VacancyConcentration)
	}
	if !(c.CuConcentration >= 0 && c.CuConcentration <= 0.5) {
		return fmt.Errorf("kmc: copper concentration %v out of range", c.CuConcentration)
	}
	if !(c.EmCu >= 0) || math.IsInf(c.EmCu, 1) {
		return fmt.Errorf("kmc: copper migration barrier %v is not non-negative and finite", c.EmCu)
	}
	if !positiveFinite(c.DtFactor) {
		return fmt.Errorf("kmc: dt factor %v is not positive and finite", c.DtFactor)
	}
	return nil
}

func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Hash returns a short stable digest of the Physics half, the explicit
// Vacancies/CuSites lists included. Checkpoint manifests record it so a
// restart with a diverging configuration is refused instead of silently
// producing a different trajectory. The runtime half is outside it by
// construction: Protocol and the rescan reference are bit-identical
// (DESIGN.md §7, §8), and Grid and Cuts are restart-compatible-but-checked
// topology (DESIGN.md §14).
func (c *Config) Hash() string { return digest.Of(c.Physics) }

// Ranks returns the process count the configuration requires.
func (c *Config) Ranks() int { return c.Grid[0] * c.Grid[1] * c.Grid[2] }

// GhostWidth returns the ghost-halo width in cells a State built from this
// configuration uses — also the minimum slab width of any legal
// decomposition (NewState refuses thinner subdomains), which topology
// choosers must respect when picking a grid for elastic restart.
func (c *Config) GhostWidth() int {
	var pot *eam.Potential
	if c.CuConcentration > 0 || len(c.CuSites) > 0 {
		pot = eam.NewFeCu(eam.Compacted, eam.TablePoints)
	} else {
		pot = eam.NewFe(eam.Compacted, eam.TablePoints)
	}
	l := lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
	return 2*l.NeighborOffsets(pot.Cutoff).MaxCellReach() + 1
}

// NumSites returns the number of lattice sites.
func (c *Config) NumSites() int { return 2 * c.Cells[0] * c.Cells[1] * c.Cells[2] }
