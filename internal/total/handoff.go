package total

import (
	"sync"

	"causalshare/internal/message"
)

// handoff gives messages released under a layer's decision lock to the
// application in release order, with no lock held during the callbacks.
// A release queues its messages under the lock; the goroutine that finds
// no drainer active becomes the drainer and delivers until the queue is
// empty. A release on another goroutine queues behind the batch being
// delivered instead of overtaking it, and a callback that re-enters ASend
// and releases on the drainer's own goroutine queues instead of
// deadlocking.
type handoff struct {
	mu       *sync.Mutex // the layer's decision lock; guards the fields below
	deliver  func(message.Message)
	queue    []message.Message // released, not yet delivered
	spare    []message.Message // the last drained batch, reused as the next queue
	draining bool
}

// pushLocked queues a released message. Caller holds h.mu.
func (h *handoff) pushLocked(m message.Message) {
	h.queue = append(h.queue, m)
}

// claimLocked reports whether the caller must call drain after unlocking:
// messages are queued and no goroutine is draining. The caller becomes the
// drainer. Caller holds h.mu.
func (h *handoff) claimLocked() bool {
	if h.draining || len(h.queue) == 0 {
		return false
	}
	h.draining = true
	return true
}

// drain delivers queued messages in order until the queue is empty, then
// gives up the drainer role. Only the goroutine whose claimLocked returned
// true calls it, without h.mu held.
func (h *handoff) drain() {
	h.mu.Lock()
	for len(h.queue) > 0 {
		batch := h.queue
		h.queue = h.spare[:0]
		h.mu.Unlock()
		for _, m := range batch {
			h.deliver(m)
		}
		clear(batch) // release the delivered messages to the collector
		h.mu.Lock()
		h.spare = batch
	}
	h.draining = false
	h.mu.Unlock()
}
