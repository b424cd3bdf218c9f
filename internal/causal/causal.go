// Package causal implements causal broadcasting, the communication
// construct at the heart of the paper (§3): delivery of messages M at all
// group members in the causal order R(M).
//
// Three interchangeable engines are provided:
//
//   - OSend — the paper's contribution (§3.3): every message carries an
//     explicit OccursAfter predicate naming the labels it depends on. A
//     member delivers a message once all named predecessors are delivered
//     locally. The causal order is exactly what the application declared
//     ("semantic ordering"), no more.
//   - CBCAST — the ISIS-style baseline [Birman, Schiper & Stephenson]:
//     every message piggybacks a vector clock, and delivery follows the
//     classic causal condition. The transport's incidental order is
//     conservatively folded into causality ("incidental ordering"), so
//     CBCAST may impose constraints the application never asked for.
//   - PCCast — the PC-broadcast scaling engine [Nédelec, Molli & Mostéfaoui]:
//     given reliable per-pair FIFO links (reliable.Wrap, or a fault-free
//     transport), causal order needs no per-message clock at all. Each
//     member forwards every message on first receipt into its own FIFO
//     stream before reacting to it, so wire metadata is constant-size
//     regardless of group size — the engine that scales to n=256 and
//     beyond, at the cost of flood amplification.
//
// All run over a transport.Conn and report buffering metrics used by
// experiments E6/E7/E15; OSend and CBCast additionally tolerate
// reordering, duplication and (with retransmission enabled) loss on the
// raw transport, while PCCast delegates loss repair to the link layer it
// requires.
package causal

import (
	"errors"
	"fmt"

	"causalshare/internal/message"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("causal: engine closed")

// DeliverFunc consumes messages in causal order. It is invoked on the
// engine's receive goroutine with no engine lock held, so implementations
// may call back into the engine (e.g. broadcast a response) but must not
// block indefinitely.
type DeliverFunc func(message.Message)

// Broadcaster is the sending half shared by both engines; the total-order
// layer and the core data-access protocols are written against it.
type Broadcaster interface {
	// Self returns the local member id.
	Self() string
	// Broadcast sends m to every group member, including the sender
	// (self-delivery passes through the same ordering logic, so a member
	// observes its own messages in causal position).
	Broadcast(m message.Message) error
	// Close stops the engine. Buffered but undeliverable messages are
	// discarded.
	Close() error
}

// Engine is the full surface the recovery and chaos machinery drives: the
// Broadcaster sending half plus the anti-entropy, failure-marking and
// rejoin hooks. OSend and PCCast implement it; CBCast (the baseline) stays
// a plain Broadcaster.
type Engine interface {
	Broadcaster
	// Delivered reports whether l has been delivered locally.
	Delivered(l message.Label) bool
	// MarkDown sets or clears a peer's down mark (stability quorum and
	// fetch routing; see the engines' method docs).
	MarkDown(peer string, down bool)
	// SyncWith asks one peer for a state-sync snapshot.
	SyncWith(peer string) error
	// RequestSync asks every peer for a state-sync snapshot.
	RequestSync() error
	// Frontier returns the delivered watermarks per origin.
	Frontier() map[string]uint64
	// SeedFrontier marks everything up to wm[origin] as already delivered.
	SeedFrontier(wm map[string]uint64)
}

// frame type tags on the wire.
const (
	frameOSendData byte = iota + 1
	frameOSendFetch
	frameCBCastData
	frameCBCastFetch
	frameOSendAdvert
	frameCBCastAdvert
	frameOSendSyncReq
	frameOSendSyncResp
	framePCCastData
	framePCCastFetch
	framePCCastAdvert
	framePCCastSyncReq
	framePCCastSyncResp
	framePCCastJoinReq
	framePCCastJoinResp
)

func frameError(kind byte, err error) error {
	return fmt.Errorf("causal: frame kind %d: %w", kind, err)
}
