package couple

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzManifest hardens the restart path against damaged checkpoint
// metadata: truncated writes, garbled bytes, dropped or mutated fields. The
// contract under fuzz is exactly the operator-facing one — loadManifest
// must return a descriptive couple: error (never panic, never accept), and
// Latest must skip the damaged snapshot rather than fail the restart —
// unless the bytes decode to an older manifest version, which Latest must
// refuse with an error naming that version. The seed corpus starts from
// manifests a real coupled run committed.
func FuzzManifest(f *testing.F) {
	cfg := coupledConfig()
	dir := f.TempDir()
	cfg.Checkpoint = Checkpoint{Dir: dir, Every: 60}
	if _, err := Run(cfg); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var real []byte
	for _, e := range entries {
		if ckptDirRe.MatchString(e.Name()) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name(), manifestName))
			if err != nil {
				f.Fatal(err)
			}
			real = data
			f.Add(data)
		}
	}
	if real == nil {
		f.Fatal("the seed run committed no snapshot")
	}
	f.Add(real[:len(real)/2])                                            // torn write
	f.Add([]byte(""))                                                    // empty file
	f.Add([]byte("{torn write"))                                         // invalid JSON
	f.Add([]byte("null"))                                                // decodes to zero Manifest
	f.Add([]byte(`{"Version":4,"Stage":"md","Step":1,"Ranks":0}`))       // no ranks
	f.Add([]byte(`{"Version":4,"Stage":"warp","Step":1,"Ranks":1}`))     // unknown stage
	f.Add([]byte(`{"Version":9,"Stage":"md","Step":1,"Ranks":1}`))       // future version
	f.Add([]byte(`{"Version":4,"Stage":"md","Step":-3,"Ranks":1}`))      // negative step
	f.Add(bytes.Replace(real, []byte(`"Stage"`), []byte(`"Stale"`), 1))  // field dropped
	f.Add(bytes.Replace(real, []byte(`"Ranks"`), []byte(`"Pranks"`), 1)) // field dropped
	f.Add([]byte(`{"Version":4,"Stage":"md","Step":1,"Ranks":4,` +       // topology mismatch
		`"Topology":{"Grid":[3,1,1]}}`))
	f.Add([]byte(`{"Version":4,"Stage":"md","Step":1,"Ranks":2,` + // short cuts
		`"Topology":{"Grid":[2,1,1],"Cuts":[[0,22],null,null]}}`))
	f.Add(bytes.Replace(real, []byte(`"Version": 4`), []byte(`"Version": 3`), 1)) // intact older version

	f.Fuzz(func(t *testing.T, data []byte) {
		prev := log.Writer()
		log.SetOutput(io.Discard)
		defer log.SetOutput(prev)

		dir := t.TempDir()
		snap := filepath.Join(dir, "ckpt-000001")
		if err := os.MkdirAll(snap, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, manifestName), data, 0o666); err != nil {
			t.Fatal(err)
		}

		man, err := loadManifest(snap)
		if err == nil {
			// The fuzzed bytes happened to decode into a structurally valid
			// manifest whose promised rank files all exist — impossible here,
			// since the fuzz directory holds none and validation requires
			// Ranks >= 1.
			t.Fatalf("manifest with no rank files accepted: %+v", man)
		}
		if msg := err.Error(); !strings.Contains(msg, "couple:") {
			t.Errorf("rejection not a descriptive couple: error: %v", err)
		}
		got, err := Latest(dir, "any-hash")
		var decoded Manifest
		if json.Unmarshal(data, &decoded) == nil && decoded.Version >= 1 && decoded.Version < manifestVersion {
			// An intact older snapshot must stop the restart with its
			// version named, not be skipped into a silent fresh run.
			if want := fmt.Sprintf("version %d", decoded.Version); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Latest on a v%d manifest: man=%+v err=%v, want an error naming %q", decoded.Version, got, err, want)
			}
			return
		}
		// The damaged snapshot must be skipped, not poison the whole dir.
		if err != nil || got != nil {
			t.Errorf("Latest did not skip the damaged snapshot: man=%+v err=%v", got, err)
		}
	})
}
