package noc

import (
	"errors"
	"testing"

	"gonoc/internal/sim"
)

func newRing(capacity int) *ring { return &ring{buf: make([]flitH, capacity)} }

// FIFO order, full/empty and wrap-around at the paper's input (1) and
// output (3) capacities and at the packet-sized queue of the
// cut-through modes (6): each step pushes `push` flits, then pops `pop`,
// so the head index laps the buffer several times.
func TestRingFIFOAcrossWrap(t *testing.T) {
	steps := []struct{ push, pop int }{{1, 1}, {1, 0}, {0, 1}, {2, 1}, {1, 2}, {6, 6}, {3, 1}, {2, 4}}
	for _, capacity := range []int{1, 3, 6} {
		q := newRing(capacity)
		next, want := 0, 0 // sequence numbers pushed / expected at the head
		for lap := 0; lap < 5; lap++ {
			for _, st := range steps {
				for i := 0; i < st.push && !q.full(); i++ {
					q.push(mkFlit(7, next, 0), 1)
					next++
				}
				if q.len() != next-want || q.empty() != (next == want) || q.full() != (next-want == capacity) {
					t.Fatalf("cap %d: len %d empty %v full %v with %d flits held", capacity, q.len(), q.empty(), q.full(), next-want)
				}
				for i := 0; i < q.len(); i++ {
					if got := q.at(i).seq(); got != want+i {
						t.Fatalf("cap %d: at(%d) = seq %d, want %d", capacity, i, got, want+i)
					}
				}
				for i := 0; i < st.pop && !q.empty(); i++ {
					if got := q.head().seq(); got != want {
						t.Fatalf("cap %d: head seq %d, want %d", capacity, got, want)
					}
					if got := q.pop().seq(); got != want {
						t.Fatalf("cap %d: popped seq %d, want %d", capacity, got, want)
					}
					want++
				}
			}
		}
		if next < 4*capacity {
			t.Fatalf("cap %d: only %d pushes, the ring never wrapped", capacity, next)
		}
	}
}

func TestRingPushOnFullPanics(t *testing.T) {
	for _, capacity := range []int{1, 3, 6} {
		q := newRing(capacity)
		for i := 0; i < capacity; i++ {
			q.push(mkFlit(0, i, 0), 1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("cap %d: push on a full ring did not panic", capacity)
				}
			}()
			q.push(mkFlit(0, capacity, 0), 1)
		}()
		if q.len() != capacity || q.head().seq() != 0 {
			t.Fatalf("cap %d: refused push disturbed the ring", capacity)
		}
	}
}

// The per-queue (stamp, cnt) rule must decide exactly like the per-flit
// stamp array it replaced. The oracle keeps that array: one stamp per
// resident flit, written at the push, and "the head already moved this
// cycle" is stamp-of-head == cycle+1. Pushes and pops interleave at
// random within a cycle, as switch, injection and link do; a pop is only
// attempted when the oracle allows it, which is the engines' discipline
// (no flit leaves the queue in the cycle it entered).
func TestRingStampMatchesPerFlitOracle(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, capacity := range []int{1, 2, 3, 6} {
		q := newRing(capacity)
		var oracle []uint64 // stamp of each resident flit, head first
		seq := 0
		for cycle := uint64(0); cycle < 4000; cycle++ {
			if rng.Bernoulli(0.2) {
				continue // an idle cycle: stamps age
			}
			now := cycle + 1
			for op := rng.Intn(2 * capacity); op >= 0; op-- {
				if !q.empty() {
					if got, want := q.advanced(now), oracle[0] == now; got != want {
						t.Fatalf("cap %d cycle %d: advanced = %v, per-flit stamp says %v (stamps %v, cnt %d)",
							capacity, cycle, got, want, oracle, q.cnt)
					}
				}
				switch {
				case rng.Bernoulli(0.5) && !q.full():
					q.push(mkFlit(1, seq%MaxPacketLen, 0), now)
					oracle = append(oracle, now)
					seq++
				case !q.empty() && oracle[0] != now:
					q.pop()
					oracle = oracle[1:]
				}
			}
		}
		if seq < 1000 {
			t.Fatalf("cap %d: only %d pushes exercised", capacity, seq)
		}
	}
}

func TestConfigValidateBufferCapBounds(t *testing.T) {
	var capErr *bufCapError
	with := func(in, out int) Config {
		c := DefaultConfig()
		c.InBufCap, c.OutBufCap = in, out
		return c
	}
	ok := func(c Config) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Errorf("in %d out %d rejected: %v", c.InBufCap, c.OutBufCap, err)
		}
	}
	tooBig := func(c Config, field string) {
		t.Helper()
		if err := c.Validate(); !errors.As(err, &capErr) || capErr.field != field {
			t.Errorf("in %d out %d: got %v, want a %s bufCapError", c.InBufCap, c.OutBufCap, err, field)
		}
	}
	ok(with(1, 1))
	ok(with(MaxBufCap-1, MaxBufCap-1))
	ok(with(MaxBufCap, 3))
	ok(with(1, MaxBufCap))
	ok(with(MaxBufCap, MaxBufCap))
	tooBig(with(MaxBufCap+1, 3), "input")
	tooBig(with(1, MaxBufCap+1), "output")
	tooBig(with(1<<40, 3), "input")
	tooBig(with(1, 1<<40), "output")

	if err := with(0, 3).Validate(); err == nil || errors.As(err, &capErr) {
		t.Errorf("in 0: got %v, want the lower-bound error", err)
	}
	// The cut-through modes inherit the bound through OutBufCap >= PacketLen.
	vct := with(1, MaxBufCap)
	vct.Switching, vct.PacketLen = VirtualCutThrough, MaxBufCap
	ok(vct)
	vct.PacketLen = MaxBufCap + 1
	if vct.Validate() == nil {
		t.Error("VCT packet longer than any legal output buffer validated")
	}
	if _, err := NewNetwork(nil, nil, with(1, MaxBufCap+1), nil); !errors.As(err, &capErr) {
		t.Errorf("NewNetwork: got %v, want a bufCapError before anything is built", err)
	}
}

// Reset must leave every ring as newRouter built it — empty, head at
// slot 0, no stage stamp — so that no stamp of the last run can meet an
// equal cycle+1 in the next, and the reset network then replays a
// workload exactly like a fresh twin.
func TestResetClearsStageStamps(t *testing.T) {
	reused := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, reused, 1500, 31)
	if reused.InFlightFlits() == 0 {
		t.Fatal("first workload left no flit in a buffer")
	}
	reused.Reset()
	for _, r := range reused.routers {
		check := func(q *ring) {
			if q.stamp != 0 || q.cnt != 0 || q.start != 0 || q.n != 0 {
				t.Fatalf("node %d: ring left at stamp %d cnt %d start %d n %d by Reset", r.node, q.stamp, q.cnt, q.start, q.n)
			}
		}
		for i := range r.in {
			for v := range r.in[i].bufs {
				check(&r.in[i].bufs[v])
			}
		}
		for i := range r.out {
			for v := range r.out[i].vcs {
				check(&r.out[i].vcs[v].q)
			}
		}
	}
	// The second workload runs past the cycle the first one stopped at,
	// so every stamp the first left behind is met again.
	fresh := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, reused, 2000, 77)
	drive(t, fresh, 2000, 77)
	if fr, ff := stateFingerprint(reused), stateFingerprint(fresh); fr != ff {
		t.Fatalf("reset network diverged from fresh twin:\nreset: %s\nfresh: %s", fr, ff)
	}
}
