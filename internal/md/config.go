// Package md implements the Molecular Dynamics engine that simulates defect
// generation by cascade collision (paper §2.1): EAM forces over the lattice
// neighbor list, velocity-Verlet integration, run-away atom and vacancy
// bookkeeping, spatial domain decomposition with ghost exchange, the
// Sunway CPE-offloaded force kernel with the paper's data-movement
// optimizations, and Wigner-Seitz defect analysis feeding the KMC stage.
package md

import (
	"fmt"
	"math"

	"mdkmc/internal/digest"
	"mdkmc/internal/eam"
	"mdkmc/internal/lattice"
	"mdkmc/internal/units"
)

// Default numerical parameters; see Config.
const (
	// DefaultDt is the MD time step in ps ("time step is set to 1
	// femtosecond").
	DefaultDt = 1e-3
	// DefaultSkin is the extra margin (Å) added to the interaction cutoff
	// when selecting the static lattice-neighbor offsets used for
	// lattice-resident pairs; it must cover twice the run-away conversion
	// threshold.
	DefaultSkin = 0.9
	// RunawayThreshold is the displacement (Å) from the home lattice site
	// beyond which an atom is converted to a run-away atom and its site to
	// a vacancy.
	RunawayThreshold = 0.45
	// WideMargin is the extra margin (Å) added to the cutoff for the wide
	// offset table used to locate run-away atoms: twice the largest
	// possible distance between a run-away atom and its anchor site (the
	// circumradius of the BCC Wigner-Seitz cell, ~0.56a).
	WideMargin = 3.2
)

// PKA configures the primary knock-on atom that starts a cascade: the
// simulated equivalent of the irradiation event (DESIGN.md §2).
type PKA struct {
	Energy    float64    // recoil energy in eV (must be positive and finite)
	Direction [3]float64 // initial direction (normalized internally; zero = DefaultPKADirection)
}

// Berendsen configures the optional velocity-rescaling thermostat used
// during equilibration.
type Berendsen struct {
	Target float64 // temperature in K
	Tau    float64 // coupling time in ps
}

// Physics is the trajectory-determining half of a Config: every field
// here changes the simulated trajectory, and Hash digests the struct
// wholesale, so no field can be left out of the checkpoint digest.
type Physics struct {
	Cells   [3]int // unit cells per dimension of the global box
	A       float64
	Species units.Element
	// CuFraction substitutes the given fraction of lattice atoms with
	// copper (the alloy path of §2.1.2; requires Species == Fe). Placement
	// is derived from the seed, so it is identical across process grids.
	CuFraction float64

	Temperature float64 // initial temperature (K)
	Dt          float64 // time step (ps)
	Steps       int

	Seed uint64

	Mode        eam.Mode
	TablePoints int
	Skin        float64

	PKA        *PKA       // optional cascade initialization
	Thermostat *Berendsen // optional thermostat
}

// Config fully describes an MD run: the Physics that determines the
// trajectory plus the runtime fields that only decide how the work is laid
// out. The zero value is not runnable; use DefaultConfig as a starting
// point.
type Config struct {
	Physics

	// Grid is the process grid (ranks = product). It is a topology knob
	// (DESIGN.md §14): the checkpoint manifest records it and the re-shard
	// loader handles a change, so it is not part of the physics.
	Grid [3]int
	// Cuts, when a dimension is non-nil, are explicit slab boundaries for
	// that dimension of the process grid (lattice.NewGridCuts) — the
	// load-balanced decomposition produced by the repartitioner. Like Grid it
	// changes how work is distributed, not which trajectory is physical.
	Cuts [3][]int

	// Workers is the number of OS worker goroutines the shared-memory force
	// driver (and the host side of the CPE kernel) uses per rank: 0 means
	// runtime.GOMAXPROCS, 1 is the serial reference mode. Results are
	// bit-identical for every value — the driver shards into a fixed number
	// of chunks and reduces them in chunk order (DESIGN.md §9) — so the
	// knob trades wall-clock only.
	Workers int

	// referenceKernel selects the retained full-iteration force kernel
	// instead of the optimized half-neighbor/fused-lookup one. The two
	// produce bitwise-equal trajectories (DESIGN.md §13); only the
	// in-package equivalence tests set it.
	referenceKernel bool
}

// DefaultConfig returns the paper's iron setup at a laptop-scale box size:
// Fe at 600 K, lattice constant 2.855 Å, 1 fs steps, compacted tables.
func DefaultConfig() Config {
	return Config{
		Physics: Physics{
			Cells:       [3]int{8, 8, 8},
			A:           units.LatticeConstantFe,
			Species:     units.Fe,
			Temperature: 600,
			Dt:          DefaultDt,
			Steps:       100,
			Seed:        1,
			Mode:        eam.Compacted,
			TablePoints: eam.TablePoints,
			Skin:        DefaultSkin,
		},
		Grid: [3]int{1, 1, 1},
	}
}

// Validate reports configuration errors. Every float must be finite: the
// checks are written as conditions a valid value meets, which NaN fails.
func (c *Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.Cells[d] <= 0 {
			return fmt.Errorf("md: non-positive cell count %v", c.Cells)
		}
		if c.Grid[d] <= 0 {
			return fmt.Errorf("md: non-positive grid %v", c.Grid)
		}
	}
	if !positiveFinite(c.A) {
		return fmt.Errorf("md: lattice constant %v is not positive and finite", c.A)
	}
	if !positiveFinite(c.Dt) {
		return fmt.Errorf("md: time step %v is not positive and finite", c.Dt)
	}
	if !finite(c.Temperature) {
		return fmt.Errorf("md: temperature %v is not finite", c.Temperature)
	}
	if c.Steps < 0 {
		return fmt.Errorf("md: negative step count %d", c.Steps)
	}
	if !positiveFinite(c.Skin) {
		return fmt.Errorf("md: skin %v is not positive and finite", c.Skin)
	}
	if c.TablePoints < 8 {
		return fmt.Errorf("md: table resolution %d too small", c.TablePoints)
	}
	if c.Workers < 0 {
		return fmt.Errorf("md: negative worker count %d", c.Workers)
	}
	if !(c.CuFraction >= 0 && c.CuFraction <= 1) {
		return fmt.Errorf("md: copper fraction %v out of range", c.CuFraction)
	}
	if c.CuFraction > 0 && c.Species != units.Fe {
		return fmt.Errorf("md: copper substitution requires an iron host")
	}
	if p := c.PKA; p != nil {
		if !positiveFinite(p.Energy) {
			return fmt.Errorf("md: PKA energy %v is not positive and finite", p.Energy)
		}
		for _, v := range p.Direction {
			if !finite(v) {
				return fmt.Errorf("md: PKA direction %v is not finite", p.Direction)
			}
		}
	}
	if th := c.Thermostat; th != nil && !(th.Target >= 0 && finite(th.Target) && positiveFinite(th.Tau)) {
		return fmt.Errorf("md: thermostat %+v needs a finite target >= 0 and a positive finite tau", *th)
	}
	return nil
}

func finite(x float64) bool         { return !math.IsNaN(x) && !math.IsInf(x, 0) }
func positiveFinite(x float64) bool { return x > 0 && finite(x) }

// Hash returns a short stable digest of the Physics half. Checkpoint
// manifests record it so a restart with a diverging configuration is
// refused instead of silently producing a different trajectory. The
// runtime half is outside it by construction: Workers and the kernel
// choice are bit-identical knobs (DESIGN.md §9, §13), and Grid and Cuts
// are restart-compatible-but-checked topology (DESIGN.md §14).
func (c *Config) Hash() string { return digest.Of(c.Physics) }

// Ranks returns the number of processes the configuration requires.
func (c *Config) Ranks() int { return c.Grid[0] * c.Grid[1] * c.Grid[2] }

// GhostWidth returns the minimum subdomain slab width in cells: the ghost
// reach of the wide neighbor table (cutoff plus the run-away margin). The
// topology choosers (lattice.ChooseGrid, the repartitioner) use it as the
// feasibility constraint so a fitted decomposition never produces a slab
// narrower than its own halo.
func (c *Config) GhostWidth() int {
	var pot *eam.Potential
	if c.Species == units.Cu || c.CuFraction > 0 {
		pot = eam.NewFeCu(eam.Compacted, eam.TablePoints)
	} else {
		pot = eam.NewFe(eam.Compacted, eam.TablePoints)
	}
	l := lattice.New(c.Cells[0], c.Cells[1], c.Cells[2], c.A)
	return l.NeighborOffsets(pot.Cutoff + WideMargin).MaxCellReach()
}

// NumAtoms returns the initial atom count (2 per BCC cell).
func (c *Config) NumAtoms() int { return 2 * c.Cells[0] * c.Cells[1] * c.Cells[2] }
