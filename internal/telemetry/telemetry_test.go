package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestZigzagRoundtrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
	// The mapping must be small for small magnitudes so varints stay short.
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(-2) != 3 {
		t.Errorf("zigzag order wrong: -1->%d 1->%d -2->%d", zigzag(-1), zigzag(1), zigzag(-2))
	}
}

// record encodes rows (each 1+3*nodes+links long) and returns the raw
// stream plus the recorder's stats.
func record(t *testing.T, spec Spec, rows [][]uint64) ([]byte, Stats) {
	t.Helper()
	r, err := NewRecorder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Start(&buf); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		r.Append(row)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Bytes != uint64(buf.Len()) {
		t.Fatalf("Stats.Bytes = %d, stream is %d bytes", st.Bytes, buf.Len())
	}
	if st.Samples != uint64(len(rows)) {
		t.Fatalf("Stats.Samples = %d, appended %d", st.Samples, len(rows))
	}
	return buf.Bytes(), st
}

func randomRows(spec Spec, n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	m := spec.Series()
	rows := make([][]uint64, n)
	cum := make([]uint64, m)
	cycle := uint64(0)
	for i := range rows {
		cycle += uint64(1 + rng.Intn(50)) // occasional large gaps, like SkipTo
		row := make([]uint64, m)
		row[0] = cycle
		for s := 1; s < m; s++ {
			if rng.Intn(3) == 0 { // many series idle per cycle
				cum[s] += uint64(rng.Intn(5))
			}
			row[s] = cum[s]
		}
		rows[i] = row
	}
	return rows
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	spec := Spec{Nodes: 5, Links: 7, ChunkLen: 16}
	for _, n := range []int{1, 15, 16, 17, 160, 161} { // partial, exact, wrapping chunks
		rows := randomRows(spec, n, int64(n))
		raw, st := record(t, spec, rows)
		wantChunks := uint64((n + spec.ChunkLen - 1) / spec.ChunkLen)
		if st.Chunks != wantChunks {
			t.Fatalf("n=%d: Chunks = %d, want %d", n, st.Chunks, wantChunks)
		}
		c, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("n=%d: Decode: %v", n, err)
		}
		if c.Spec() != spec {
			t.Fatalf("n=%d: decoded spec %+v", n, c.Spec())
		}
		if c.Samples() != n {
			t.Fatalf("n=%d: decoded %d samples", n, c.Samples())
		}
		for i, want := range rows {
			got := c.Row(i)
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("n=%d: sample %d series %d = %d, want %d", n, i, s, got[s], want[s])
				}
			}
		}
	}
}

func TestReencodeByteIdentity(t *testing.T) {
	// Decoding a capture and re-appending its rows must reproduce the
	// identical byte stream: chunk boundaries are a pure function of
	// the row sequence. This is what noctsd roundtrip relies on.
	spec := Spec{Nodes: 4, Links: 6, ChunkLen: 8}
	rows := randomRows(spec, 50, 99)
	raw, _ := record(t, spec, rows)
	c, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecorder(c.Spec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Start(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Samples(); i++ {
		r.Append(c.Row(i))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("re-encoded stream differs: %d vs %d bytes", len(raw), buf.Len())
	}
}

func TestSampleShapeMismatch(t *testing.T) {
	r, err := NewRecorder(Spec{Nodes: 2, Links: 1, ChunkLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Start(&buf); err != nil {
		t.Fatal(err)
	}
	r.Sample(1, make([]int32, 3), make([]uint64, 2), make([]uint64, 2), make([]uint64, 1))
	if r.Err() == nil {
		t.Fatal("shape mismatch not detected")
	}
	if err := r.Flush(); err == nil {
		t.Fatal("sticky error lost by Flush")
	}
}

func TestSampleBeforeStart(t *testing.T) {
	r, err := NewRecorder(Spec{Nodes: 1, Links: 1, ChunkLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Sample(1, []int32{0}, []uint64{0}, []uint64{0}, []uint64{0}) // chunkLen 1: flushes immediately
	if r.Err() == nil {
		t.Fatal("Sample before Start not detected")
	}
}

func TestStartResetsForReuse(t *testing.T) {
	spec := Spec{Nodes: 3, Links: 2, ChunkLen: 4}
	rows := randomRows(spec, 11, 7)
	r, err := NewRecorder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	for _, buf := range []*bytes.Buffer{&first, &second} {
		if err := r.Start(buf); err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			r.Append(row)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("restarted recorder produced a different stream")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	spec := Spec{Nodes: 2, Links: 2, ChunkLen: 4}
	raw, _ := record(t, spec, randomRows(spec, 10, 3))
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated stream decoded without error")
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic decoded without error")
	}
	if _, err := Decode(bytes.NewReader(raw[:4])); err == nil {
		t.Error("short header decoded without error")
	}
}

func TestRecorderDoesNotAllocateSteadyState(t *testing.T) {
	spec := Spec{Nodes: 16, Links: 48, ChunkLen: 32}
	r, err := NewRecorder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Grow(1 << 20) // keep the test writer out of the measurement
	if err := r.Start(&buf); err != nil {
		t.Fatal(err)
	}
	occ := make([]int32, spec.Nodes)
	inj := make([]uint64, spec.Nodes)
	ej := make([]uint64, spec.Nodes)
	link := make([]uint64, spec.Links)
	cycle := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		cycle++
		inj[int(cycle)%spec.Nodes]++
		link[int(cycle)%spec.Links] += 2
		r.Sample(cycle, occ, inj, ej, link)
	})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Sample allocates %v per call", allocs)
	}
}

// The ring's series stride is buffer layout only: recorders padded
// differently encode the same rows to the same bytes, across partial,
// exact and wrapping chunks.
func TestRingStrideDoesNotChangeStream(t *testing.T) {
	spec := Spec{Nodes: 5, Links: 7, ChunkLen: 16}
	for _, n := range []int{1, 16, 17, 161} {
		rows := randomRows(spec, n, int64(n))
		var streams [][]byte
		for _, pad := range []int{0, 3, ringPad} {
			r, err := newRecorder(spec, pad)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.Start(&buf); err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				r.Append(row)
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			streams = append(streams, buf.Bytes())
		}
		for i := 1; i < len(streams); i++ {
			if !bytes.Equal(streams[0], streams[i]) {
				t.Fatalf("n=%d: stride padding changed the encoded stream", n)
			}
		}
	}
}
