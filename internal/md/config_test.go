package md

import (
	"strings"
	"testing"

	"mdkmc/internal/digest/digesttest"
)

// fullConfig is a valid configuration with every optional part populated,
// so the reflection checks reach every leaf.
func fullConfig() *Config {
	c := DefaultConfig()
	c.PKA = &PKA{Energy: 500, Direction: [3]float64{1, 2, 3}}
	c.Thermostat = &Berendsen{Target: 300, Tau: 0.1}
	c.Grid = [3]int{2, 1, 1}
	c.Cuts = [3][]int{{0, 4, 8}, nil, nil}
	return &c
}

func TestHashCoversExactlyPhysics(t *testing.T) {
	digesttest.CheckSplit(t, fullConfig, (*Config).Hash, func(path string) bool {
		return strings.HasPrefix(path, "Physics.")
	})
	ref := fullConfig()
	ref.referenceKernel = true
	if ref.Hash() != fullConfig().Hash() {
		t.Error("the reference kernel changed Hash")
	}
	// Pinned: a changed default or encoding changes the digest manifests
	// record, and needs a manifest version bump.
	if c := DefaultConfig(); c.Hash() != "b4afd488cb021fca" {
		t.Errorf("default MD config hash %s", c.Hash())
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	digesttest.CheckNonFinite(t, fullConfig, (*Config).Validate, "Physics.")
}
