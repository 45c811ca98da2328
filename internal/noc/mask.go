package noc

// slotMask is a multi-word bitmap over one router's flattened
// (port, VC) buffer slots — the successor of the single-uint64 masks
// that capped a router at 64 slots and forced high-degree × high-VC
// networks onto a scan-everything engine. Ports are laid out at a power-of-two
// stride ≥ the VC count (Network.stride), so a port's bits never
// straddle a word boundary: extracting one port's occupancy is a single
// shift-and-mask regardless of how many words the router needs. The
// round-robin arbitration moduli keep using the logical (unstrided)
// slot counts, so arbitration is bit-identical to the packed layout.
type slotMask []uint64

// newSlotMask returns a mask covering n stride-spaced slot bits.
func newSlotMask(n int) slotMask { return make(slotMask, (n+63)/64) }

func (m slotMask) set(i int)      { m[i>>6] |= 1 << (uint(i) & 63) }
func (m slotMask) clearBit(i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

func (m slotMask) test(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// any reports whether any slot bit is set.
func (m slotMask) any() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// anyOutside reports whether m holds a bit that ej does not — the
// "transit head present" test (inOcc minus ejOcc) of the switch stage.
func (m slotMask) anyOutside(ej slotMask) bool {
	for i, w := range m {
		if w&^ej[i] != 0 {
			return true
		}
	}
	return false
}

// port extracts the width occupancy bits of the port based at bit
// `base` into the low bits of one word. base is a multiple of the
// power-of-two stride, so the bits never cross a word.
func (m slotMask) port(base, width int) uint64 {
	return m[base>>6] >> (uint(base) & 63) & (1<<uint(width) - 1)
}

// zero clears the mask in place.
func (m slotMask) zero() {
	for i := range m {
		m[i] = 0
	}
}

// resizeMask returns m resized to cover n slot bits and zeroed,
// reusing the backing array when it is wide enough — the scratch-mask
// idiom of the invariant checks.
func resizeMask(m slotMask, n int) slotMask {
	words := (n + 63) / 64
	if cap(m) < words {
		return newSlotMask(n)
	}
	m = m[:words]
	m.zero()
	return m
}

// eq reports word-wise equality with o (same geometry assumed).
func (m slotMask) eq(o slotMask) bool {
	for i, w := range m {
		if w != o[i] {
			return false
		}
	}
	return true
}
