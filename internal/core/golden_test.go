package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
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

// goldenRead holds every key a checkGolden call looked up, so TestMain
// can tell a frozen value no test checks any more from a live one.
var goldenRead = struct {
	sync.Mutex
	keys map[string]bool
}{keys: map[string]bool{}}

// TestMain fails a full, passing, non-update run whose golden file holds
// a key that no checkGolden call read: a scenario a test stopped
// running would otherwise keep a frozen digest that proves nothing.
// Filtered runs (-run, -skip, -list) read only part of the file, so the
// guard stays off for them.
func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if code == 0 && !*update && unfiltered() {
		if err := staleGoldenKeys(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// unfiltered reports whether this run selects every test.
func unfiltered() bool {
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			return false
		}
	}
	return true
}

// staleGoldenKeys returns an error naming every key of the golden file
// that no checkGolden call read.
func staleGoldenKeys() error {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return fmt.Errorf("%s: %v", goldenPath, err)
	}
	goldenRead.Lock()
	defer goldenRead.Unlock()
	var stale []string
	for k := range golden {
		if !goldenRead.keys[k] {
			stale = append(stale, k)
		}
	}
	if len(stale) == 0 {
		return nil
	}
	sort.Strings(stale)
	return fmt.Errorf("%s holds %d keys no test read (delete them by hand): %v", goldenPath, len(stale), stale)
}

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
	goldenRead.Lock()
	goldenRead.keys[name] = true
	goldenRead.Unlock()
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
