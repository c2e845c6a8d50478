package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestShippedScenarioFiles loads and runs every scenario in /scenarios at a
// reduced op count, twice: the shipped examples must never rot, and each
// must be deterministic — the two runs' JSON reports byte-identical.
func TestShippedScenarioFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no shipped scenarios found")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spec, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip: a loaded spec must survive re-encoding — every
			// field Load accepts, Marshal emits and Load accepts again.
			enc, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Load(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("re-loading the marshaled spec: %v", err)
			}
			if !reflect.DeepEqual(spec, again) {
				t.Fatalf("round-trip changed the spec:\n%+v\n%+v", spec, again)
			}
			run := func() []byte {
				spec, err := Load(bytes.NewReader(enc))
				if err != nil {
					t.Fatal(err)
				}
				// Shrink for test speed; semantics unchanged.
				spec.Ops = 300
				spec.Objects = 128
				if spec.Crashes != nil {
					spec.Crashes.Count = 1
					spec.Crashes.RestartMS = 2
					spec.Crashes.RetransferMS = 1
				}
				rep, err := spec.Run()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Ops == 0 {
					t.Fatal("scenario ran zero ops")
				}
				out, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			if a, b := run(), run(); !bytes.Equal(a, b) {
				t.Fatalf("two runs of the same spec reported differently:\n%s\n%s", a, b)
			}
		})
	}
}
