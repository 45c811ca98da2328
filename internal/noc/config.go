package noc

import "fmt"

// Switching selects the flow-control discipline. The paper adopts
// wormhole ("the most generally adopted switching scheme") and argues
// it trades off against virtual cut-through and packet (store-and-
// forward) switching; this model implements all three so the trade-off
// is measurable.
type Switching int

// Switching modes.
const (
	// Wormhole forwards flits as soon as the next output queue has one
	// free slot; a blocked worm stalls in place across routers.
	Wormhole Switching = iota
	// VirtualCutThrough forwards like wormhole but admits a packet to
	// an output queue only when the whole packet fits, so a blocked
	// packet always collapses into one router. Requires
	// OutBufCap >= PacketLen.
	VirtualCutThrough
	// StoreAndForward additionally holds every packet until its tail
	// has fully arrived in the local output queue before the head may
	// traverse the link. Requires OutBufCap >= PacketLen.
	StoreAndForward
)

// String returns the conventional name of the mode.
func (s Switching) String() string {
	switch s {
	case Wormhole:
		return "wormhole"
	case VirtualCutThrough:
		return "vct"
	case StoreAndForward:
		return "saf"
	default:
		return fmt.Sprintf("switching(%d)", int(s))
	}
}

// MaxBufCap bounds Config.InBufCap and Config.OutBufCap. Every buffer
// is preallocated at its full capacity when the network is built
// (router.go), so an unbounded value in a scenario file would turn into
// an unbounded allocation; 4096 flits is three orders of magnitude above
// the paper's 1- and 3-flit buffers. Cut-through and store-and-forward
// switching need OutBufCap >= PacketLen and so stop at 4096-flit packets.
const MaxBufCap = 1 << 12

// bufCapError reports a buffer capacity above MaxBufCap.
type bufCapError struct {
	field string // "input" or "output"
	cap   int
}

func (e *bufCapError) Error() string {
	return fmt.Sprintf("noc: %s buffer capacity %d exceeds the limit %d", e.field, e.cap, MaxBufCap)
}

// Config carries the buffer geometry and interface rates of the node
// model (figure 4 of the paper). The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// PacketLen is the constant packet size in flits. The paper uses 6.
	PacketLen int
	// OutBufCap is the capacity, in flits, of each output queue
	// (virtual channel), at most MaxBufCap. The paper uses 3 ("all
	// output buffers may contain up to three-flits").
	OutBufCap int
	// InBufCap is the capacity of the per-link input buffer, at most
	// MaxBufCap. The paper uses 1 ("incoming links have a one-flit
	// buffer").
	InBufCap int
	// SinkRate is the number of flits the destination IP consumes per
	// cycle through its network interface. 1 models the single
	// ejection port whose saturation the paper identifies as the
	// hot-spot bottleneck.
	SinkRate int
	// InjectRate is the number of flits the source IP can push into
	// the network per cycle; 1 models a single injection port.
	InjectRate int
	// SourceQueueCap bounds the IP-memory source queue in packets;
	// 0 means unbounded (the paper's sources are open-loop Poisson,
	// so their queues grow without bound past saturation).
	SourceQueueCap int
	// Switching selects the flow-control discipline (default
	// Wormhole, as in the paper).
	Switching Switching
}

// DefaultConfig returns the paper's parameters: 6-flit packets, 3-flit
// output queues, 1-flit input buffers, and 1-flit/cycle interfaces.
func DefaultConfig() Config {
	return Config{
		PacketLen:  6,
		OutBufCap:  3,
		InBufCap:   1,
		SinkRate:   1,
		InjectRate: 1,
	}
}

// Validate returns an error describing the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.PacketLen < 1:
		return fmt.Errorf("noc: packet length %d < 1", c.PacketLen)
	case c.OutBufCap < 1:
		return fmt.Errorf("noc: output buffer capacity %d < 1", c.OutBufCap)
	case c.InBufCap < 1:
		return fmt.Errorf("noc: input buffer capacity %d < 1", c.InBufCap)
	case c.OutBufCap > MaxBufCap:
		return &bufCapError{"output", c.OutBufCap}
	case c.InBufCap > MaxBufCap:
		return &bufCapError{"input", c.InBufCap}
	case c.SinkRate < 1:
		return fmt.Errorf("noc: sink rate %d < 1", c.SinkRate)
	case c.InjectRate < 1:
		return fmt.Errorf("noc: inject rate %d < 1", c.InjectRate)
	case c.SourceQueueCap < 0:
		return fmt.Errorf("noc: source queue capacity %d < 0", c.SourceQueueCap)
	case c.Switching != Wormhole && c.Switching != VirtualCutThrough && c.Switching != StoreAndForward:
		return fmt.Errorf("noc: unknown switching mode %d", int(c.Switching))
	case c.Switching != Wormhole && c.OutBufCap < c.PacketLen:
		return fmt.Errorf("noc: %v switching needs output buffers >= packet length (%d < %d)",
			c.Switching, c.OutBufCap, c.PacketLen)
	default:
		return nil
	}
}
