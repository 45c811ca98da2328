// Package telemetry implements an FTDC-style per-cycle capture of the
// network's probe counters: a preallocated ring of sample rows is
// delta-encoded (zigzag varints with zero run-length elision) into
// length-framed chunks on an io.Writer. The design goals, in order:
//
//  1. Allocation-free steady state. The ring, the encode buffer, and
//     the frame header are sized once in NewRecorder; Sample and the
//     chunk flush never allocate, so telemetry-on runs pass the same
//     allocs/packet gate as telemetry-off runs.
//  2. Deterministic bytes. The encoding is a pure function of the
//     sampled values, so emitted bytes/cycle is a gateable counter and
//     parallel/serial captures can be compared byte for byte.
//  3. Independently decodable chunks. Every series restarts from an
//     absolute value at each chunk boundary, so a reader can seek by
//     frame without unwinding the whole file.
//
// One capture is a header followed by zero or more chunks:
//
//	header  = magic "NOCTELE1" | uvarint nodes | uvarint links | uvarint chunkLen
//	chunk   = uvarint len(payload) | payload
//	payload = uvarint count | series[0] | ... | series[M-1]
//	series  = uvarint absolute first value | delta*
//	delta   = uvarint zigzag(v[i]-v[i-1])            // non-zero
//	        | 0x00 | uvarint extraZeros               // run of 1+extraZeros zero deltas
//
// with M = 1 + 3*nodes + links series laid out as
// [cycle][occupancy x nodes][injected x nodes][ejected x nodes][link x links].
// Cumulative counters (injected/ejected/link) delta to small positive
// numbers; occupancy deltas hover around zero; the cycle series encodes
// idle fast-forward gaps as a single large delta. Quiescent stretches
// where nothing changes collapse into zero runs across every series.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic begins every capture stream.
const Magic = "NOCTELE1"

// DefaultChunkLen is the samples-per-chunk used when Options.ChunkLen
// is zero: large enough to amortise framing, small enough that a
// truncated tail loses little.
const DefaultChunkLen = 512

// Spec fixes the shape of a capture: the series count and chunk size
// are pure functions of it, so two captures with equal specs and equal
// samples are byte-identical.
type Spec struct {
	Nodes    int
	Links    int
	ChunkLen int
}

// Series returns the number of parallel series M in a capture row.
func (s Spec) Series() int { return 1 + 3*s.Nodes + s.Links }

func (s Spec) validate() error {
	if s.Nodes <= 0 || s.Links < 0 || s.ChunkLen <= 0 {
		return fmt.Errorf("telemetry: invalid spec %+v", s)
	}
	return nil
}

// Stats are the recorder's cumulative emission counters. Bytes includes
// the header and every frame written so far; it advances only on chunk
// flush, so call Recorder.Flush before reading a final value.
type Stats struct {
	Bytes   uint64 // total bytes written (header + frames)
	Samples uint64 // rows sampled
	Chunks  uint64 // frames emitted
}

// Recorder accumulates sample rows in a preallocated ring and flushes
// them as delta-encoded chunks. Methods are not safe for concurrent
// use; in the parallel engine the single sampling goroutine calls
// Sample between Step calls, which is the supported pattern.
type Recorder struct {
	spec Spec
	m    int // series per row

	ring   []uint64 // m series of stride words each, series-major
	stride int      // words between consecutive series: ChunkLen + padding
	count  int      // rows currently buffered

	enc  []byte   // chunk payload scratch, cap = worst case
	head [10]byte // frame-length scratch
	row  []uint64 // Sample's staging row

	w     io.Writer
	err   error
	stats Stats
}

// NewRecorder sizes a recorder for spec. ChunkLen must be positive
// (use DefaultChunkLen). All buffers are allocated here; no later call
// allocates.
func NewRecorder(spec Spec) (*Recorder, error) {
	return newRecorder(spec, ringPad)
}

// ringPad is the padding, in words, between consecutive series of the
// ring. Append stores one word into every series, and with the default
// ChunkLen an unpadded stride is exactly 4 KiB: all of a row's stores
// would land in one cache set and evict each other (a mesh-8x8 row is
// 417 stores). One cache line of padding walks them across the sets.
// The padding is buffer layout only; the encoded stream cannot see it.
const ringPad = 8

func newRecorder(spec Spec, pad int) (*Recorder, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m := spec.Series()
	stride := spec.ChunkLen + pad
	r := &Recorder{
		spec:   spec,
		m:      m,
		ring:   make([]uint64, m*stride),
		stride: stride,
		row:    make([]uint64, m),
	}
	// Worst case per series: 10-byte absolute plus 11 bytes per delta
	// (a lone zero delta costs a 1-byte token and a 10-byte run
	// length; non-zero deltas cost at most 10). Plus the sample count.
	r.enc = make([]byte, 0, binary.MaxVarintLen64+m*(binary.MaxVarintLen64+(spec.ChunkLen-1)*(binary.MaxVarintLen64+1)))
	return r, nil
}

// Spec returns the shape the recorder was sized for.
func (r *Recorder) Spec() Spec { return r.spec }

// Start binds the recorder to w, writes the capture header, and resets
// the ring and counters. A recorder may be restarted on a new writer;
// equal sample sequences then produce byte-identical streams.
func (r *Recorder) Start(w io.Writer) error {
	r.w = w
	r.err = nil
	r.count = 0
	r.stats = Stats{}
	h := r.enc[:0]
	h = append(h, Magic...)
	h = binary.AppendUvarint(h, uint64(r.spec.Nodes))
	h = binary.AppendUvarint(h, uint64(r.spec.Links))
	h = binary.AppendUvarint(h, uint64(r.spec.ChunkLen))
	n, err := w.Write(h)
	r.stats.Bytes += uint64(n)
	if err != nil {
		r.err = err
	}
	return err
}

// Sample records one row from the network's probe views. Slice lengths
// must match the spec (occ/inj/ej of Nodes, link of Links); a mismatch
// poisons the recorder with a sticky error. Errors (including write
// failures from chunk flushes) surface from Flush or Err.
func (r *Recorder) Sample(cycle uint64, occ []int32, inj, ej, link []uint64) {
	if r.err != nil {
		return
	}
	n, l := r.spec.Nodes, r.spec.Links
	if len(occ) != n || len(inj) != n || len(ej) != n || len(link) != l {
		r.err = fmt.Errorf("telemetry: sample shape (%d,%d,%d,%d) does not match spec (nodes=%d links=%d)",
			len(occ), len(inj), len(ej), len(link), n, l)
		return
	}
	row := r.row
	row[0] = cycle
	for i, v := range occ {
		row[1+i] = uint64(uint32(v)) // occupancy is non-negative; widen without sign noise
	}
	copy(row[1+n:], inj)
	copy(row[1+2*n:], ej)
	copy(row[1+3*n:], link)
	r.Append(row)
}

// Append records one raw row (cycle followed by the series values in
// spec order). It is the low-level path used by Sample and by tools
// that re-encode decoded captures.
func (r *Recorder) Append(row []uint64) {
	if r.err != nil {
		return
	}
	if len(row) != r.m {
		r.err = fmt.Errorf("telemetry: row has %d values, spec has %d series", len(row), r.m)
		return
	}
	// Ring is column-major (series-major): ring[s*stride+i] is
	// series s at buffered sample i, so encoding walks each series
	// contiguously.
	for s, v := range row {
		r.ring[s*r.stride+r.count] = v
	}
	r.count++
	r.stats.Samples++
	if r.count == r.spec.ChunkLen {
		r.flushChunk()
	}
}

// Flush encodes any buffered partial chunk and returns the sticky
// error state. Call it once at capture end; chunk-full flushes happen
// automatically inside Append.
func (r *Recorder) Flush() error {
	r.flushChunk()
	return r.err
}

// Err returns the sticky error without flushing.
func (r *Recorder) Err() error { return r.err }

// Stats returns the cumulative emission counters.
func (r *Recorder) Stats() Stats { return r.stats }

func (r *Recorder) flushChunk() {
	if r.err != nil || r.count == 0 {
		return
	}
	if r.w == nil {
		r.err = errors.New("telemetry: Sample before Start")
		return
	}
	enc := binary.AppendUvarint(r.enc[:0], uint64(r.count))
	for s := 0; s < r.m; s++ {
		col := r.ring[s*r.stride : s*r.stride+r.count]
		enc = binary.AppendUvarint(enc, col[0])
		zeros := uint64(0)
		for i := 1; i < len(col); i++ {
			d := col[i] - col[i-1] // wraparound two's complement delta
			if d == 0 {
				zeros++
				continue
			}
			if zeros > 0 {
				enc = append(enc, 0)
				enc = binary.AppendUvarint(enc, zeros-1)
				zeros = 0
			}
			enc = binary.AppendUvarint(enc, zigzag(int64(d)))
		}
		if zeros > 0 {
			enc = append(enc, 0)
			enc = binary.AppendUvarint(enc, zeros-1)
		}
	}
	hn := binary.PutUvarint(r.head[:], uint64(len(enc)))
	n, err := r.w.Write(r.head[:hn])
	r.stats.Bytes += uint64(n)
	if err == nil {
		n, err = r.w.Write(enc)
		r.stats.Bytes += uint64(n)
	}
	if err != nil {
		r.err = err
		return
	}
	r.stats.Chunks++
	r.count = 0
}

// zigzag maps signed deltas to unsigned varint-friendly values:
// 0,-1,1,-2,2... -> 0,1,2,3,4...
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
