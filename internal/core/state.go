// Package core implements the paper's computational framework for shared
// data access (§4–§6.1): application state machines driven by causally
// ordered messages, causal activities, stable-point detection, the client
// front-end manager that generates OccursAfter orderings from operation
// commutativity, and replicas that defer reads to stable points.
//
// The pieces compose as follows. A FrontEnd turns application operations
// into messages whose OccursAfter predicates encode the generic protocol
// of §6.1 (commutative operations concurrent within a cycle, each cycle
// closed by a non-commutative operation). Any causal.Broadcaster carries
// the messages. A Replica applies delivered messages to its local state
// copy via the application's transition function F: M×S → S, recognizes
// stable points locally — no agreement rounds — and serves deferred reads
// from stable states, which the model guarantees identical at every
// replica.
package core

import (
	"fmt"

	"causalshare/internal/graph"
	"causalshare/internal/message"
)

// State is an application state S. Implementations must be value-like:
// Clone returns an independent deep copy, Equal compares by value, and
// Digest returns a deterministic fingerprint equal states share (used to
// audit cross-replica agreement at stable points). A Replica clones its
// initial state at construction and afterwards only to hand out reads
// (ReadStable, ReadDeferred, ReadNow) and OnStable snapshots; stable
// points themselves copy nothing.
type State interface {
	Clone() State
	Equal(State) bool
	Digest() string
}

// Transition is the state transition function F: M×S → S of relation (1)
// in the paper. It must be deterministic and must not retain or mutate m.
// Implementations return the successor state; they may mutate and return
// the input state (the replica owns it) or return a fresh one.
//
// Determinism is load-bearing: a Replica applies each message once to its
// current state and again, at the activity's closer, to its stable state,
// and relies on both reaching the same value. A Transition that reads a
// clock, a random source or any state outside (s, m) breaks stable-point
// agreement on a single replica, not only across replicas.
type Transition func(State, message.Message) State

// Commute reports whether applying a and b in either order from state s
// yields equal states under apply — the paper's definition of concurrent
// (commutative) messages: F(mb, F(ma, s)) = F(ma, F(mb, s)).
func Commute(apply Transition, s State, a, b message.Message) bool {
	ab := apply(apply(s.Clone(), a), b)
	ba := apply(apply(s.Clone(), b), a)
	return ab.Equal(ba)
}

// TransitionPreserving reports whether every linearization of the message
// set msgs allowed by the dependency graph g reaches the same final state
// from s0 — the §4.1 condition for R(K) to constitute a causal activity
// whose closing state is a stable point.
//
// limit bounds the number of linearizations examined (0 = all; the count
// can reach (r+1)! per the paper). If the graph is empty the answer is
// trivially true. An error is returned when g contains labels missing
// from msgs.
func TransitionPreserving(g *graph.Graph, msgs map[message.Label]message.Message, apply Transition, s0 State, limit int) (bool, error) {
	lins := g.Linearizations(limit)
	if len(lins) == 0 {
		return true, nil
	}
	var ref State
	for i, lin := range lins {
		st := s0.Clone()
		for _, l := range lin {
			m, ok := msgs[l]
			if !ok {
				return false, fmt.Errorf("core: label %v in graph but not in message set", l)
			}
			st = apply(st, m)
		}
		if i == 0 {
			ref = st
			continue
		}
		if !st.Equal(ref) {
			return false, nil
		}
	}
	return true, nil
}
