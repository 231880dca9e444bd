package kmc

import (
	"strings"
	"testing"

	"mdkmc/internal/digest/digesttest"
)

// fullConfig is a valid configuration with every optional part populated,
// so the reflection checks reach every leaf.
func fullConfig() *Config {
	c := DefaultConfig()
	c.Vacancies = []int{3, 17}
	c.CuConcentration = 0.01
	c.CuSites = []int{5}
	c.EmCu = 0.5
	c.Grid = [3]int{2, 1, 1}
	c.Cuts = [3][]int{{0, 6, 12}, nil, nil}
	return &c
}

func TestHashCoversExactlyPhysics(t *testing.T) {
	digesttest.CheckSplit(t, fullConfig, (*Config).Hash, func(path string) bool {
		return strings.HasPrefix(path, "Physics.")
	})
	ref := fullConfig()
	ref.fullRescan = true
	if ref.Hash() != fullConfig().Hash() {
		t.Error("the full-rescan reference changed Hash")
	}
	// Pinned: a changed default or encoding changes the digest manifests
	// record, and needs a manifest version bump.
	if c := DefaultConfig(); c.Hash() != "4f0bddc49ac0f9ab" {
		t.Errorf("default KMC config hash %s", c.Hash())
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	digesttest.CheckNonFinite(t, fullConfig, (*Config).Validate, "Physics.")
}
