package traffic

import (
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"testing"
)

// The batching tests compare against frozen network summaries instead
// of a second emitter: testdata/reference-golden.json holds the
// netSummary each golden run produced with same-cycle batching off, one
// kernel event per arrival (EXPERIMENTS.md, "One production path per
// layer", records how). -update re-records the file from the batched
// generators; use it only for a change that is meant to alter the
// packet stream.
var update = flag.Bool("update", false, "rewrite testdata/reference-golden.json from this run")

const goldenPath = "testdata/reference-golden.json"

// checkGolden compares got with the frozen value recorded under name.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := map[string]string{}
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	case !*update || !errors.Is(err, fs.ErrNotExist):
		t.Fatal(err)
	}
	if *update {
		golden[name] = got
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := golden[name]
	if !ok {
		t.Fatalf("%s: no frozen value in %s", name, goldenPath)
	}
	if got != want {
		t.Fatalf("%s diverged from the frozen reference:\ngot:       %s\nreference: %s", name, got, want)
	}
}
