package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// The golden tests below compare the engines against frozen digests
// instead of a second stepper: testdata/reference-golden.json holds the
// SHA-256 of each test's per-cycle stateFingerprint sequence as the
// retired sweep engine produced it with packet pooling off (EXPERIMENTS.md,
// "One production path per layer", records how). -update re-records the
// file from the production engines; use it only for a change that is
// meant to alter simulation results.
var update = flag.Bool("update", false, "rewrite testdata/reference-golden.json from this run")

const goldenPath = "testdata/reference-golden.json"

// goldenNet builds the network whose fingerprints a golden test hashes.
func goldenNet(t *testing.T, topo topology.Topology, alg routing.Algorithm, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(topo, alg, cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fingerprints hashes a sequence of fingerprint lines.
type fingerprints struct{ h hash.Hash }

func newFingerprints() fingerprints { return fingerprints{h: sha256.New()} }

// add appends one line: n's stateFingerprint followed by any extra
// observables.
func (f fingerprints) add(n *Network, extra ...any) {
	fmt.Fprint(f.h, stateFingerprint(n))
	for _, x := range extra {
		fmt.Fprint(f.h, " ", x)
	}
	fmt.Fprintln(f.h)
}

func (f fingerprints) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

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
