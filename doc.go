// Package mdkmc is a Go reproduction of "Massively Scaling the Metal
// Microscopic Damage Simulation on Sunway TaihuLight Supercomputer"
// (Shigang Li et al., ICPP 2018): a coupled Molecular Dynamics / Kinetic
// Monte Carlo simulation of irradiation damage in BCC iron, together with
// the systems the paper's scalability study depends on — a lattice
// neighbor list with run-away atom chains, compacted EAM interpolation
// tables, a simulated Sunway SW26010 many-core substrate with a 64 KB
// local store and virtual-clock DMA engine, an in-process MPI-like
// runtime, the semirigorous synchronous sublattice KMC with the paper's
// on-demand communication strategy, and calibrated scaling models that
// regenerate every figure of the paper's evaluation at machine scale.
//
// The package exposes the three top-level entry points a downstream user
// needs:
//
//	res, err := mdkmc.RunMD(mdkmc.DefaultMDConfig())           // cascade MD
//	res, err := mdkmc.RunKMC(mdkmc.DefaultKMCConfig(), 100, 0) // defect evolution
//	res, err := mdkmc.RunCoupled(mdkmc.CoupledConfig{...})     // the full pipeline
//
// Multi-process parallelism is simulated in-process: Config.Grid selects a
// 3-D domain decomposition and each subdomain runs on its own goroutine
// rank with explicit message passing, so the communication behaviour the
// paper optimizes is observable (and counted) on a laptop.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced figure.
package mdkmc
