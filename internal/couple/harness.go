package couple

// The run harness shared by the four checkpointed entry points — RunMD,
// RunKMC, Run and RunCampaign. Each entry point keeps its own step/cycle
// loops and hands the harness everything around them: opening the run
// (restart manifest, coordinator, fault plan, telemetry, world), restoring
// rank state from a snapshot, the per-step boundary (periodic snapshot,
// telemetry flush, fault point, preemption poll) and the end-of-run
// telemetry aggregate. Because every entry point restarts through the same
// code, a restart is just the same run executed again (DESIGN.md §10, §16).

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"mdkmc/internal/lattice"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// runOpts is the runtime half of a run: snapshot cadence and restart, the
// injected-fault plan, telemetry and preemption. None of it enters a config
// hash.
type runOpts struct {
	ck      Checkpoint
	faults  []mpi.Fault
	tel     telemetry.Options
	preempt *Preemptor
}

// runOpts returns the runtime half of a coupled or campaign configuration.
func (cfg *Config) runOpts() runOpts {
	return runOpts{cfg.Checkpoint, cfg.Faults, cfg.Telemetry, cfg.Preempt}
}

// harness is one open run, shared read-only by its ranks: the restart
// manifest (nil on a fresh start), the checkpoint coordinator (nil when
// checkpointing is off), the telemetry set (nil when disabled) and the
// preemptor (nil when the run cannot be evicted).
type harness struct {
	man     *Manifest
	co      *Coordinator
	set     *telemetry.Set
	preempt *Preemptor
}

// execute opens a run of the given rank count under the config digest hash,
// runs body on every rank of a fresh in-process world, and returns the
// end-of-run telemetry report (nil when telemetry is disabled). A restart
// snapshot of a stage outside stages is refused: each entry point resumes
// only the stages it writes, so no run can mistake another's rank files for
// its own. The fault plan is o.faults plus any plan in MDKMC_FAULT.
func execute(ranks int, hash string, o runOpts, stages []string, body func(h *harness, c *mpi.Comm, reg *telemetry.Registry) error) (*telemetry.Report, error) {
	h := &harness{preempt: o.preempt}
	if o.ck.Dir != "" {
		if o.ck.Restart {
			man, err := Latest(o.ck.Dir, hash)
			if err != nil {
				return nil, err
			}
			if man != nil && !slices.Contains(stages, man.Stage) {
				return nil, fmt.Errorf("couple: checkpoint %d holds a %q-stage snapshot; this run resumes only %s snapshots",
					man.Seq, man.Stage, strings.Join(stages, "/"))
			}
			h.man = man
		}
		co, err := NewCoordinator(o.ck, hash)
		if err != nil {
			return nil, err
		}
		h.co = co
	}
	envFaults, err := mpi.FaultsFromEnv()
	if err != nil {
		return nil, err
	}
	set, err := telemetry.NewSet(ranks, o.tel)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	h.set = set
	h.co.AttachTelemetry(set)

	var rep *telemetry.Report
	w := mpi.NewWorld(ranks)
	w.InjectFault(o.faults...)
	w.InjectFault(envFaults...)
	err = w.RunE(func(c *mpi.Comm) error {
		reg := set.Rank(c.Rank())
		c.AttachTelemetry(reg)
		if err := body(h, c, reg); err != nil {
			return err
		}
		// End-of-run aggregation is collective; every rank enters it (set is
		// identical across ranks: nil when disabled). It runs after body has
		// captured the comm stats, so its own traffic stays out of both.
		if set == nil {
			return nil
		}
		r, err := telemetry.Aggregate(c, reg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			rep = r
			return set.WriteReport(r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// restorer is the checkpoint surface md.Rank and kmc.State share.
type restorer interface {
	Restore(io.Reader) error
	RestoreResharded(lattice.ShardSource) error
}

// restore loads the snapshot man into x, a rank's stage state decomposed by
// grid: byte-for-byte when the snapshot was written under the same
// decomposition, re-sharded from every source rank file otherwise
// (DESIGN.md §14). Every rank must call it.
func restore(c *mpi.Comm, man *Manifest, grid *lattice.Grid, x restorer) error {
	src, err := man.Topology.SourceGrid(grid.L)
	if err != nil {
		return err
	}
	if !cutsEqual(src.Cuts(), grid.Cuts()) {
		return x.RestoreResharded(lattice.ShardSource{Grid: src, Open: man.Open})
	}
	rc, err := man.Open(c.Rank())
	if err != nil {
		return err
	}
	err = x.Restore(rc)
	rc.Close()
	return err
}

// stageLoop describes one advancing loop to the boundary: what its snapshots
// record, and how its fault point and telemetry flushes are named. A loop
// whose state changes shape mid-run (a rebalanced KMC stage) updates topo and
// save in place.
type stageLoop struct {
	stage string         // manifest stage of the loop's snapshots
	point string         // fault-injection point fired at every boundary
	flush string         // telemetry flush label prefix
	topo  Topology       // decomposition the rank files are sliced by
	md    *MDSummary     // coupled KMC stage: the MD summary the manifest carries
	camp  *CampaignState // campaign stage: the ledger the manifest carries
	save  func(io.Writer) error
}

// boundary ends every step/cycle of an advancing loop, in this order: the
// periodic snapshot when due, the telemetry flush, the fault point, and the
// preemption poll. more is the loop's own keep-going condition after this
// step; a loop about to finish neither snapshots nor evicts, it falls
// through to normal completion. Every rank must call it; it returns
// ErrPreempted once the final snapshot is committed.
func (h *harness) boundary(c *mpi.Comm, l *stageLoop, step int, more bool) error {
	if more && h.co.Due(step) {
		if err := h.co.snapshot(c, step, l); err != nil {
			return err
		}
	}
	if c.Rank() == 0 && h.set.FlushDue(step) {
		if err := h.set.Flush(fmt.Sprintf("%s-%d", l.flush, step)); err != nil {
			return err
		}
	}
	c.FaultPoint(l.point, step)
	return h.evict(c, l, step, more)
}

// evict is the preemption poll: when more work remains and eviction was
// requested, it commits a final snapshot of l at step (when checkpointing is
// on) and returns ErrPreempted. The guard is rank-uniform, so every rank
// enters the collective Poll in lockstep.
func (h *harness) evict(c *mpi.Comm, l *stageLoop, step int, more bool) error {
	if h.preempt == nil || !more || !h.preempt.Poll(c) {
		return nil
	}
	if h.co != nil {
		if err := h.co.snapshot(c, step, l); err != nil {
			return err
		}
	}
	return ErrPreempted
}
