// Replicator abstracts the replication backend behind the strong-register
// API. ROADMAP open item 3: chain replication (the paper's §6.1 protocol,
// writer-retry recovery, monotone apply) is one implementation; the
// retransmit backend (hop-level hold-back/retransmit buffers that close the
// §9 anomaly window E15 measured) is the second. Future backends — e.g. an
// in-switch Paxos per "Paxos Made Switch-y" — are one implementation each.
package chain

import (
	"fmt"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// Replication selects the replication backend for a strong register.
type Replication int

// Replication backends.
const (
	// ChainReplication is the paper's §6.1 protocol: monotone apply at each
	// hop, end-to-end recovery by the writer's control-plane retry. Under
	// chain-hop loss with shared sequence groups it admits the bounded
	// non-linearizable anomaly window E15 measures.
	ChainReplication Replication = iota
	// RetransmitReplication closes that window: every hop applies writes in
	// exact sequence order, holding back out-of-order arrivals in a bounded
	// per-group buffer and recovering lost hop-to-hop frames with a NACK to
	// the predecessor, which retransmits from its own bounded buffer of
	// forwarded writes (both buffers charged to data-plane SRAM). The
	// cumulative ack freeing predecessor buffers is the tail's existing
	// WriteAck broadcast.
	RetransmitReplication
)

func (r Replication) String() string {
	if r == RetransmitReplication {
		return "retransmit"
	}
	return "chain"
}

// Replicator is the replication-backend interface: everything the core
// instance, the controller, the cluster facade, and the test oracles need
// from a per-switch strong-register protocol instance. *Node (chain
// backend) and *RetransmitNode implement it.
type Replicator interface {
	// Write submits a write from this switch's NF; done is invoked with
	// committed=true on the tail acknowledgement, false when retries are
	// exhausted.
	Write(key uint64, val []byte, done func(committed bool))
	// Base returns the chain node that carries the protocol state. Both
	// backends submit writes through (*Node).Write, so a caller that holds
	// only the interface can write through Base().Write without the value
	// slice escaping through an interface call.
	Base() *Node
	// Read performs an NF read; fn receives the value (nil, false on miss).
	Read(key uint64, fn func(val []byte, ok bool))
	// Get returns the local replica value without protocol involvement.
	Get(key uint64) ([]byte, bool)
	// Handle routes a protocol message to this node; false if the message is
	// not for this register.
	Handle(from netem.Addr, msg wire.Msg) bool
	// SetChain installs a chain configuration (from the controller).
	SetChain(cc wire.ChainConfig)
	// Chain returns the current configuration.
	Chain() wire.ChainConfig
	// Config returns the node's configuration (with defaults applied).
	Config() Config
	// Switch returns the owning switch.
	Switch() *pisa.Switch
	// MemoryBytes returns the data-plane SRAM this register consumes here.
	MemoryBytes() int
	// Counters exposes the node's protocol counters.
	Counters() *Stats
	// WriteLatency returns the submit-to-commit latency distribution of
	// locally submitted writes.
	WriteLatency() *stats.Histogram
	// OutstandingWrites returns the number of buffered, unacknowledged
	// writes at this writer's control plane.
	OutstandingWrites() int
	// HeldFrames returns the number of out-of-order writes currently parked
	// in hold-back buffers (always 0 for the chain backend).
	HeldFrames() int
	// BeginJoin enters joining mode (§6.3 recovery).
	BeginJoin()
	// StartSnapshotTransfer streams this node's state to a joining switch.
	StartSnapshotTransfer(to netem.Addr, onComplete func())
	// InjectSkipForward plants the acked-but-unreplicated verification bug.
	InjectSkipForward(count int)
	// InjectDisableRetransmit plants a verification-only bug on the
	// retransmit backend: the hold-back/retransmit buffer silently stores
	// nothing, so every NACK is unserviceable. No-op on the chain backend.
	InjectDisableRetransmit()
}

var (
	_ Replicator = (*Node)(nil)
	_ Replicator = (*RetransmitNode)(nil)
)

// New creates the protocol instance for cfg's selected replication backend
// and allocates its SRAM.
func New(sw *pisa.Switch, cfg Config) (Replicator, error) {
	switch cfg.Replication {
	case ChainReplication:
		return NewNode(sw, cfg)
	case RetransmitReplication:
		return NewRetransmitNode(sw, cfg)
	default:
		return nil, fmt.Errorf("chain: register %d: unknown replication backend %d", cfg.Reg, cfg.Replication)
	}
}

// Counters implements Replicator (the Stats field itself keeps its name for
// struct-literal consumers inside the package).
func (n *Node) Counters() *Stats { return &n.Stats }

// HeldFrames implements Replicator: the chain backend never holds back
// frames.
func (n *Node) HeldFrames() int { return 0 }

// InjectDisableRetransmit implements Replicator: no-op — the chain backend
// has no retransmit buffer.
func (n *Node) InjectDisableRetransmit() {}

// OutstandingReads returns the number of forwarded reads awaiting a tail
// reply at this node (for the read-path reconfiguration tests).
func (n *Node) OutstandingReads() int { return len(n.reads) }
