package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"gonoc/internal/telemetry"
)

// resultJSON renders a result for equality checks (Result holds slice
// fields, so == does not apply; the JSON form covers every serialized
// index).
func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// telemetryScenario is a small mesh near its knee: enough traffic that
// every probe series moves, small enough that the capture matrix tests
// stay fast.
func telemetryScenario() Scenario {
	s := NewScenario(Mesh, 16, UniformTraffic, 0.03)
	s.Warmup = 100
	s.Measure = 1200
	s.Seed = 7
	return s
}

// captureRun executes s with telemetry into a buffer and returns the
// raw stream plus the run's result.
func captureRun(t *testing.T, s Scenario, chunkLen int) ([]byte, telemetry.Stats, Result) {
	t.Helper()
	var buf bytes.Buffer
	var st telemetry.Stats
	s.Telemetry = &telemetry.Options{W: &buf, ChunkLen: chunkLen, Stats: &st}
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st, r
}

// TestTelemetryParallelBitIdentity is the capture half of the parallel
// determinism contract: the byte stream must be identical between the
// serial active engine and the domain-decomposed engine at every shard
// count — including shard counts that do not divide the node count.
// The CI race job runs this under -race, which also proves the
// per-shard probe counters never race.
func TestTelemetryParallelBitIdentity(t *testing.T) {
	s := telemetryScenario()
	want, st, res := captureRun(t, s, 64)
	if st.Samples == 0 || st.Chunks < 2 {
		t.Fatalf("degenerate reference capture: %+v", st)
	}
	for _, shards := range []int{1, 2, 4, 7} {
		sp := s
		sp.StepParallel = shards
		got, gotSt, gotRes := captureRun(t, sp, 64)
		if !bytes.Equal(want, got) {
			t.Errorf("shards=%d: capture differs from serial (%d vs %d bytes)", shards, len(got), len(want))
		}
		if gotSt != st {
			t.Errorf("shards=%d: stats %+v != serial %+v", shards, gotSt, st)
		}
		if resultJSON(t, gotRes) != resultJSON(t, res) {
			t.Errorf("shards=%d: result differs from serial", shards)
		}
	}
}

// TestTelemetryRingWraparound proves chunking is invisible to the
// decoded values: the same run captured at chunk lengths that wrap the
// ring many times, once, and never decodes to identical samples.
func TestTelemetryRingWraparound(t *testing.T) {
	s := telemetryScenario()
	ref, _, _ := captureRun(t, s, 7) // wraps ~190 times, final chunk partial
	refCap, err := telemetry.Decode(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []int{1, 64, 4096} {
		raw, st, _ := captureRun(t, s, cl)
		c, err := telemetry.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("chunklen=%d: %v", cl, err)
		}
		if c.Samples() != refCap.Samples() {
			t.Fatalf("chunklen=%d: %d samples, want %d", cl, c.Samples(), refCap.Samples())
		}
		want := (uint64(c.Samples()) + uint64(cl) - 1) / uint64(cl)
		if st.Chunks != want {
			t.Errorf("chunklen=%d: %d chunks, want %d", cl, st.Chunks, want)
		}
		for i := 0; i < c.Samples(); i++ {
			if !equalRows(c.Row(i), refCap.Row(i)) {
				t.Fatalf("chunklen=%d: sample %d differs", cl, i)
			}
		}
	}
}

func equalRows(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTelemetryGapElision pins the fast-forward contract: the engine
// elides quiescent cycles from the capture (no samples), and nothing is
// lost by it — filling each gap with the last sampled row rebuilds, row
// for row, the every-cycle capture the reference engine recorded.
func TestTelemetryGapElision(t *testing.T) {
	// A near-idle spidergon leaves long quiescent gaps between packets.
	s := NewScenario(Spidergon, 16, UniformTraffic, 0.0008)
	s.Warmup = 0
	s.Measure = 4000
	s.Seed = 3
	raw, st, _ := captureRun(t, s, 64)
	if st.Samples >= s.Measure+1 {
		t.Fatalf("nothing elided: %d samples over %d cycles", st.Samples, s.Measure+1)
	}
	c, err := telemetry.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, t.Name(), filledRowsDigest(t, c, int(s.Measure)+1))
}

// filledRowsDigest hashes capture c as one row per cycle in
// [0, cycles): a cycle the capture elided repeats the previous sample's
// row — a quiescent network moves nothing and its counters are
// cumulative — under its own cycle number.
func filledRowsDigest(t *testing.T, c *telemetry.Capture, cycles int) string {
	t.Helper()
	h := sha256.New()
	var row []uint64
	next := 0
	for cyc := 0; cyc < cycles; cyc++ {
		if next < c.Samples() && c.Cycle(next) == uint64(cyc) {
			row = c.Row(next)
			next++
		}
		if row == nil || (next < c.Samples() && c.Cycle(next) <= uint64(cyc)) {
			t.Fatalf("capture cycle column not strictly increasing from 0 at cycle %d", cyc)
		}
		fmt.Fprintln(h, cyc, row[1:])
	}
	if next != c.Samples() {
		t.Fatalf("%d samples beyond cycle %d", c.Samples()-next, cycles-1)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTelemetryResetMidCapture reruns a warmed workspace — Network.
// Reset zeroes the probe counters between captures — and demands the
// second capture be byte-identical to a cold one.
func TestTelemetryResetMidCapture(t *testing.T) {
	s := telemetryScenario()
	cold, coldSt, coldRes := captureRun(t, s, 64)

	var w Workspace
	var streams [2][]byte
	for i := range streams {
		var buf bytes.Buffer
		var st telemetry.Stats
		sc := s
		sc.Telemetry = &telemetry.Options{W: &buf, ChunkLen: 64, Stats: &st}
		r, err := w.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if resultJSON(t, r) != resultJSON(t, coldRes) {
			t.Fatalf("workspace run %d result differs from cold run", i)
		}
		if st != coldSt {
			t.Fatalf("workspace run %d stats %+v, cold %+v", i, st, coldSt)
		}
		streams[i] = buf.Bytes()
	}
	for i, got := range streams {
		if !bytes.Equal(cold, got) {
			t.Fatalf("workspace capture %d differs from cold capture", i)
		}
	}
}

// TestTelemetryObserverNeutral pins capture as a pure observer: result
// and deterministic engine work counters are bit-identical with
// telemetry on and off.
func TestTelemetryObserverNeutral(t *testing.T) {
	s := telemetryScenario()
	plain, plainPerf, err := RunPerf(s)
	if err != nil {
		t.Fatal(err)
	}
	_, _, withTel := captureRun(t, s, 64)
	st := s
	var buf bytes.Buffer
	st.Telemetry = &telemetry.Options{W: &buf}
	_, telPerf, err := RunPerf(st)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, withTel) != resultJSON(t, plain) {
		t.Error("telemetry-on result differs from telemetry-off")
	}
	if telPerf != plainPerf {
		t.Errorf("telemetry-on perf counters %+v differ from telemetry-off %+v", telPerf, plainPerf)
	}
}
