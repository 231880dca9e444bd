package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// committedDigests are the result digests of each workload on the default
// seed. Every workload runs a fixed rank count and its results do not
// depend on timing or on how many cores run the ranks (the determinism
// contract), so they hold on any core count; a change that alters one has
// changed the physics.
var committedDigests = map[string]string{
	"md-cascade":       "032d1cd3b401dd71",
	"kmc-anneal":       "5646972d4090679a",
	"campaign-restart": "f721f99ca8e9bd30",
	"serve-mix":        "bf03be1700e14480",
}

// digestOf returns a short hex SHA-256 of s.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// checkDigest compares a default-seed run's digest with the committed one.
func checkDigest(workload string, rep *report) {
	want := committedDigests[workload]
	switch {
	case rep.digest == "":
		rep.fail("no result digest computed")
	case rep.digest != want:
		rep.fail("result digest %s, committed %q", rep.digest, want)
	}
}
