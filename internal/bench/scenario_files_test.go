package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestShippedScenarioFiles loads and runs every scenario in /scenarios at a
// reduced op count, twice: the shipped examples must never rot, each must
// be deterministic — the two runs' JSON reports byte-identical — and the
// first report must match its golden in testdata/. A missing golden is
// written from the run and the test fails; delete a golden to re-record it
// after an intended model change. The goldens were recorded on amd64, so
// other architectures, where Go may fuse multiply-adds, skip them.
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
				out, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return append(out, '\n')
			}
			first := run()
			if again := run(); !bytes.Equal(first, again) {
				t.Fatalf("two runs of the same spec reported differently:\n%s\n%s", first, again)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			golden := filepath.Join("testdata", strings.TrimSuffix(e.Name(), ".json")+".golden")
			want, err := os.ReadFile(golden)
			if errors.Is(err, fs.ErrNotExist) {
				if err := os.WriteFile(golden, first, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("no golden report: wrote %s from this run", golden)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, want) {
				t.Fatalf("report differs from %s:\ngot:\n%s\nwant:\n%s", golden, first, want)
			}
		})
	}
}
