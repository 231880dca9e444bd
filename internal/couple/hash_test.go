package couple

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mdkmc/internal/digest/digesttest"
	"mdkmc/internal/kmc"
	"mdkmc/internal/md"
	"mdkmc/internal/mpi"
	"mdkmc/internal/telemetry"
)

// physicsFields classifies every top-level field of Config: true when it
// determines the trajectory (MD only through its Physics half). A new field
// fails the test until it is classified here.
var physicsFields = map[string]bool{
	"MD": true, "KMCCycles": true, "TThreshold": true, "Campaign": true,
	"Protocol": false, "Checkpoint": false, "Rebalance": false,
	"Faults": false, "Preempt": false, "Telemetry": false,
}

func TestHashCoversExactlyPhysics(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := physicsFields[typ.Field(i).Name]; !ok {
			t.Errorf("Config.%s is not classified as physics or runtime", typ.Field(i).Name)
		}
	}
	if len(physicsFields) != typ.NumField() {
		t.Errorf("physicsFields lists %d fields, Config has %d", len(physicsFields), typ.NumField())
	}
	build := func() *Config {
		c := coupledConfig()
		c.MD.Thermostat = &md.Berendsen{Target: 300, Tau: 0.1}
		c.MD.Grid, c.MD.Cuts = [3]int{2, 1, 1}, [3][]int{{0, 5, 11}, nil, nil}
		c.TThreshold = 1e-6
		spec, _ := FixedSpectrum(300)
		c.Campaign = CampaignSpec{Iters: 2, DoseIncrement: 1e-3, Energy: 100, Spectrum: spec,
			Ed: 30, MinSeparation: 9, MaxRecoils: 5, OKMC: true, OKMCEvents: 50}
		c.Checkpoint = Checkpoint{Dir: "ckpt", Every: 5, Restart: true, Keep: 3}
		c.Rebalance = Rebalance{Handoff: true, Every: 4, VacancyWeight: 2}
		c.Faults = []mpi.Fault{{Rank: 1, Point: mpi.PointMDStep, Step: 9}}
		c.Telemetry = telemetry.Options{Enabled: true, JSONLPath: "m.jsonl", FlushEvery: 10, HTTPAddr: ":0", Job: "j"}
		return &c
	}
	digesttest.CheckSplit(t, build, (*Config).Hash, func(path string) bool {
		if top := path[:strings.IndexAny(path+".", ".[")]; top != "MD" {
			return physicsFields[top]
		}
		return strings.HasPrefix(path, "MD.Physics.")
	})
}

func TestHashGolden(t *testing.T) {
	// Pinned: a changed default, normalization or encoding changes the
	// digest manifests record, and needs a manifest version bump.
	coupled := Config{MD: md.DefaultConfig()}
	campaign := Config{MD: md.DefaultConfig(), Campaign: CampaignSpec{Iters: 2, DoseIncrement: 2e-3, Energy: 300}}
	k := kmc.DefaultConfig()
	for name, c := range map[string][2]string{
		"coupled":  {coupled.Hash(), "6f7d453b4d9a3358"},
		"campaign": {campaign.Hash(), "51c2348389a5b30e"},
		"KMC run":  {KMCRunHash(&k, 30, 0), "a9fdded04f401b34"},
	} {
		if c[0] != c[1] {
			t.Errorf("default %s hash %s, want %s", name, c[0], c[1])
		}
	}
	if KMCRunHash(&k, 30, math.Inf(1)) != KMCRunHash(&k, 30, 0) {
		t.Error("no threshold and an infinite threshold hash differently")
	}
	if KMCRunHash(&k, 31, 0) == KMCRunHash(&k, 30, 0) || KMCRunHash(&k, 30, 1e-6) == KMCRunHash(&k, 30, 0) {
		t.Error("a stop condition is missing from the KMC run hash")
	}
}
