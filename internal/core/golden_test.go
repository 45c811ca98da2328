package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"testing"
)

// The golden tests compare results against frozen digests instead of a
// second engine: testdata/reference-golden.json holds the SHA-256 of the
// serialized Result each golden scenario produced under the retired
// sweep engine with packet pooling off (EXPERIMENTS.md, "One production
// path per layer", records how). -update re-records the file from the
// production path; use it only for a change that is meant to alter
// simulation results.
var update = flag.Bool("update", false, "rewrite testdata/reference-golden.json from this run")

const goldenPath = "testdata/reference-golden.json"

// checkResult compares the serialized form of r — every index the exp
// stack and the sinks derive from a run — with the frozen digest
// recorded under name.
func checkResult(t *testing.T, name string, r Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	checkGolden(t, name, hex.EncodeToString(sum[:]))
}

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
		t.Fatalf("%s: %s differs from the frozen reference %s", name, got, want)
	}
}
