package md

import (
	"encoding/gob"
	"fmt"

	"mdkmc/internal/lattice"
	"mdkmc/internal/neighbor"
)

// RestoreResharded loads a checkpoint written by an M-rank decomposition
// into a rank of an N-rank decomposition of the same physical run. Every
// target rank scans all M source shards in rank order and keeps the owned
// sites (and their anchored run-away atoms) that fall inside its own
// subdomain; ghost state is rebuilt by the next ghost exchange, and forces,
// densities and the owned potential-energy share are recomputed from the
// merged positions (a pure function of them). The merge order — source
// ranks ascending, sites in canonical owned order, run-away chains preserved
// — is deterministic, so every restart onto the same target topology yields
// the same trajectory; restarts onto the source topology itself should use
// Restore, which is byte-exact. Collective: every target rank must call it.
func (r *Rank) RestoreResharded(src lattice.ShardSource) error {
	if src.Grid == nil || src.Open == nil {
		return fmt.Errorf("md: reshard source missing grid or shard opener")
	}
	if src.Grid.L.Nx != r.L.Nx || src.Grid.L.Ny != r.L.Ny || src.Grid.L.Nz != r.L.Nz {
		return fmt.Errorf("md: reshard source lattice %dx%dx%d, want %dx%dx%d",
			src.Grid.L.Nx, src.Grid.L.Ny, src.Grid.L.Nz, r.L.Nx, r.L.Ny, r.L.Nz)
	}

	// Drop the perfect-lattice initialization of NewRank: every owned site is
	// overwritten below, and stale run-away chains must not survive.
	r.Box.EachOwned(func(_ lattice.Coord, local int) {
		r.Store.ClearRunaways(local)
	})

	merged := 0
	stepCount := -1
	for s := 0; s < src.Grid.Ranks(); s++ {
		cp, err := readShard(src, s)
		if err != nil {
			return err
		}
		if stepCount == -1 {
			stepCount = cp.StepCount
		} else if cp.StepCount != stepCount {
			return fmt.Errorf("md: shard %d at step %d, shard 0 at step %d", s, cp.StepCount, stepCount)
		}
		srcBox := src.Grid.Box(s, r.Box.Ghost)
		if want := srcBox.NumLocalSites(); len(cp.Store.ID) != want {
			return fmt.Errorf("md: shard %d has %d sites, source box has %d", s, len(cp.Store.ID), want)
		}
		srcBox.EachOwned(func(c lattice.Coord, srcLocal int) {
			if !r.Box.Owns(c) {
				// Not ours; chains anchored here belong to the rank owning c.
				return
			}
			dst := r.Box.LocalIndex(c)
			r.Store.ID[dst] = cp.Store.ID[srcLocal]
			r.Store.Type[dst] = cp.Store.Type[srcLocal]
			r.Store.R[dst] = cp.Store.R[srcLocal]
			r.Store.Vel[dst] = cp.Store.Vel[srcLocal]
			r.Store.F[dst] = cp.Store.F[srcLocal]
			r.Store.Rho[dst] = cp.Store.Rho[srcLocal]
			// Re-chain the run-aways anchored at this site. AddRunaway
			// prepends, so walking the source chain into a buffer and adding
			// in reverse preserves the source chain order exactly.
			var chain []neighbor.Runaway
			for ref := cp.Store.Head[srcLocal]; ref != neighbor.NoRunaway; ref = cp.Store.Pool[ref].Next {
				chain = append(chain, cp.Store.Pool[ref])
			}
			for i := len(chain) - 1; i >= 0; i-- {
				a := chain[i]
				a.Next = neighbor.NoRunaway
				r.Store.AddRunaway(dst, a)
			}
			merged++
		})
	}
	if merged != r.Box.NumOwnedSites() {
		return fmt.Errorf("md: reshard covered %d of %d owned sites — source boxes do not partition the lattice",
			merged, r.Box.NumOwnedSites())
	}
	r.StepCount = stepCount
	// Rebuild ghosts and derived state (F, ρ, F′(ρ), LastPE) from the merged
	// positions; on the writing topology this reproduces the stored values
	// bit-exactly, on a different topology it re-establishes them under the
	// new reduction order.
	r.computeForces()
	return nil
}

// readShard opens, decodes and validates one source shard.
func readShard(src lattice.ShardSource, rank int) (*checkpoint, error) {
	rd, err := src.Open(rank)
	if err != nil {
		return nil, fmt.Errorf("md: opening shard %d: %w", rank, err)
	}
	defer rd.Close()
	var cp checkpoint
	if err := gob.NewDecoder(rd).Decode(&cp); err != nil {
		return nil, fmt.Errorf("md: decoding shard %d: %w", rank, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("md: shard %d version %d, want %d", rank, cp.Version, checkpointVersion)
	}
	if cp.Rank != rank {
		return nil, fmt.Errorf("md: shard %d claims rank %d", rank, cp.Rank)
	}
	return &cp, nil
}
