package couple

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mdkmc/internal/kmc"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// TestPreemptorNilSafety: the nil receiver contract (Request/Requested are
// no-ops) keeps call sites free of guards.
func TestPreemptorNilSafety(t *testing.T) {
	var p *Preemptor
	p.Request()
	if p.Requested() {
		t.Fatal("nil preemptor reports requested")
	}
	var z Preemptor
	if z.Requested() {
		t.Fatal("zero preemptor reports requested")
	}
	z.Request()
	z.Request() // idempotent
	if !z.Requested() {
		t.Fatal("requested preemptor reports idle")
	}

	// The signal channel closes on request, whichever call comes first.
	before := &Preemptor{}
	ch := before.C()
	select {
	case <-ch:
		t.Fatal("signal channel closed before any request")
	default:
	}
	before.Request()
	<-ch
	after := &Preemptor{}
	after.Request()
	<-after.C()
}

// TestPreemptResumesBitIdentical: in each of the four checkpointed entry
// points, a pre-armed preemptor evicts the run at its very first step/cycle
// boundary (deterministically — no goroutine races), the run commits a
// snapshot of its own stage, and the restarted run reproduces the
// uninterrupted one bit-exactly. The campaign is evicted mid-iteration, so
// its snapshot must carry the pending injection (the restart
// double-injection invariant). This is the core contract the job server's
// scheduler leans on.
func TestPreemptResumesBitIdentical(t *testing.T) {
	mcfg := coupledConfig().MD
	mcfg.Steps = 30
	kcfg := kmc.DefaultConfig()
	kcfg.Cells = [3]int{12, 12, 12}
	kcfg.VacancyConcentration = 0.003
	const cycles = 12
	coupled, campaign := coupledConfig(), campaignConfig()
	// Each run drops its comm counters, which legitimately cover only the
	// resumed segment's traffic; everything else must match exactly.
	cases := []struct {
		name, stage, hash string
		run               func(ck Checkpoint, p *Preemptor) (any, error)
	}{
		{"md", StageMD, mcfg.Hash(), func(ck Checkpoint, p *Preemptor) (any, error) {
			res, err := RunMD(mcfg, ck, nil, telemetry.Options{}, p)
			if res != nil {
				res.Comm = mpi.Stats{}
			}
			return res, err
		}},
		{"kmc", StageKMC, KMCRunHash(&kcfg, cycles, 0), func(ck Checkpoint, p *Preemptor) (any, error) {
			res, err := RunKMC(kcfg, cycles, 0, ck, nil, telemetry.Options{}, p)
			if res != nil {
				res.Comm = mpi.Stats{}
			}
			return res, err
		}},
		{"coupled", StageMD, coupled.Hash(), func(ck Checkpoint, p *Preemptor) (any, error) {
			cfg := coupled
			cfg.Checkpoint, cfg.Preempt = ck, p
			res, err := Run(cfg)
			if res != nil {
				res.CommStats = mpi.Stats{}
			}
			return res, err
		}},
		{"campaign", StageCampaign, campaign.Hash(), func(ck Checkpoint, p *Preemptor) (any, error) {
			cfg := campaign
			cfg.Checkpoint, cfg.Preempt = ck, p
			res, err := RunCampaign(cfg)
			if res != nil {
				res.CommStats = mpi.Stats{}
			}
			return res, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			straight, err := tc.run(Checkpoint{}, nil)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			ck := Checkpoint{Dir: t.TempDir(), Every: 1000}
			p := &Preemptor{}
			p.Request()
			if _, err := tc.run(ck, p); !errors.Is(err, ErrPreempted) {
				t.Fatalf("pre-armed preemption returned %v, want ErrPreempted", err)
			}
			man, err := Latest(ck.Dir, tc.hash)
			if err != nil || man == nil {
				t.Fatalf("no snapshot after preemption: %v", err)
			}
			if man.Stage != tc.stage || man.Step != 1 {
				t.Fatalf("evicted at stage=%q step=%d, want %s step 1", man.Stage, man.Step, tc.stage)
			}
			midIteration := man.Campaign != nil && man.Campaign.Iter == 0 && man.Campaign.Pending != nil
			if midIteration != (tc.stage == StageCampaign) {
				t.Fatalf("campaign block %+v: a campaign evicted at step 1 must carry iteration 0 and its pending injection, other stages none", man.Campaign)
			}

			ck.Restart = true
			resumed, err := tc.run(ck, nil)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !reflect.DeepEqual(straight, resumed) {
				t.Fatalf("resumed run diverged:\n got %+v\nwant %+v", resumed, straight)
			}
		})
	}
}

// TestRunRefusesCampaignSnapshot: a campaign config hashes the same under
// Run and RunCampaign, so only the stage tells their snapshots apart. Run
// must refuse a campaign snapshot by name instead of restoring its rank
// files as an MD stage.
func TestRunRefusesCampaignSnapshot(t *testing.T) {
	cfg := campaignConfig()
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 1000}
	cfg.Preempt = &Preemptor{}
	cfg.Preempt.Request()
	if _, err := RunCampaign(cfg); !errors.Is(err, ErrPreempted) {
		t.Fatalf("pre-armed campaign preemption returned %v, want ErrPreempted", err)
	}
	cfg.Preempt = nil
	cfg.Checkpoint.Restart = true
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), `"campaign"`) {
		t.Fatalf("Run on a campaign snapshot returned %v, want an error naming the campaign stage", err)
	}
}

// TestPreemptAfterStopConditionCompletes: the boundary checks the loop's
// own stop condition. A KMC stage that reached its MC-time threshold after
// one cycle has finished; a pending preemption request must not evict it
// and leave a snapshot whose resume would do nothing.
func TestPreemptAfterStopConditionCompletes(t *testing.T) {
	cfg := coupledConfig()
	cfg.MD.Steps = 1
	cfg.TThreshold = 1e-30
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Every: 1000}
	cfg.Preempt = &Preemptor{}
	cfg.Preempt.Request()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run that met its stop condition returned %v, want completion", err)
	}
	if res.KMCCycles != 1 {
		t.Fatalf("KMC stage ran %d cycles, want 1 (threshold after the first)", res.KMCCycles)
	}
	if man, err := Latest(cfg.Checkpoint.Dir, cfg.Hash()); err != nil || man != nil {
		t.Fatalf("finished run left snapshot %+v (err %v), want none", man, err)
	}
}

// TestPreemptWithoutCheckpointStillStops: with no checkpoint directory the
// run still honors the request and returns ErrPreempted — it just has no
// snapshot to leave behind. The server never configures this shape, but the
// CLI signal path may (checkpointing disabled): the run must stop, not hang.
func TestPreemptWithoutCheckpointStillStops(t *testing.T) {
	cfg := coupledConfig()
	cfg.Preempt = &Preemptor{}
	cfg.Preempt.Request()
	if _, err := Run(cfg); !errors.Is(err, ErrPreempted) {
		t.Fatalf("got %v, want ErrPreempted", err)
	}
}
