// The discrete-event core of the emulated medium.
//
// The legacy medium scheduled one vclock timer per in-flight frame — fine
// for the paper's five nodes, a clock heap of every frame in flight for a
// thousand. The engine replaces that with a classic discrete-event
// simulator: deliveries live in an engine-owned priority queue ordered by
// (deadline, sequence), and exactly one "anchor" timer sits in the virtual
// clock at the queue's earliest deadline. When the anchor fires, every
// delivery due at that instant — an *epoch* — is popped as one batch and
// committed in (deadline, seq) order on the clock goroutine, each exactly
// as the legacy path's timer would have delivered it (NIC.deliver: detach
// check, counters, span, capture tap, receiver upcall, then MAC feedback).
//
// Determinism follows from there being one thread of control: every rng
// draw for loss and faults happens inside Send, which upcalls execute
// serially in commit order, so trace order, tap order and upcall order are
// one total order, identical at any GOMAXPROCS. Because each delivery
// reads its receiver's state at its own commit, an upcall that detaches a
// peer due later in the same epoch suppresses that delivery, as it would
// on the legacy path.
//
// Same-instant cascades (an upcall sending over a zero-delay link) re-arm
// the anchor with a fresh timer at the same instant, which the virtual
// clock orders after every timer already queued there — exactly where the
// legacy path's per-delivery timers would have landed.

package emunet

import (
	"time"

	"manetkit/internal/vclock"
)

// EpochStats describes one committed engine epoch — the per-tick telemetry
// the streaming bus exports. Every field is a pure function of the
// schedule (batch sizes and virtual-clock deadlines): nothing wall-clock-
// dependent may appear here, because epoch events land in the flight
// recorder, whose fingerprint must be byte-identical run to run.
type EpochStats struct {
	// Now is the virtual instant the epoch committed at (excluded from the
	// JSON encoding; the bus stamps its own epoch-relative offset).
	Now time.Time `json:"-"`
	// Epoch is the 1-based epoch ordinal.
	Epoch uint64 `json:"epoch"`
	// Events is the batch size: frame deliveries plus MAC feedback events
	// that fell due at this instant.
	Events int `json:"events"`
	// CommitLag is how far past the earliest deadline the commit ran. On a
	// virtual clock this is 0 by construction; under a real clock it is
	// the scheduling slip of the anchor timer.
	CommitLag time.Duration `json:"commit_lag_ns"`
	// QueueDepth is the number of deliveries still scheduled after the
	// epoch drained.
	QueueDepth int `json:"queue_depth"`
}

// EngineStats are the event core's cumulative counters, aggregated from
// every committed epoch. Deterministic for a given seed (see EpochStats).
type EngineStats struct {
	// Epochs counts committed epochs.
	Epochs uint64 `json:"epochs"`
	// Events is the total delivery count across all epochs.
	Events uint64 `json:"events"`
	// MaxEpochEvents is the largest single-epoch batch seen.
	MaxEpochEvents int `json:"max_epoch_events"`
}

// delivery is one scheduled event: a frame arriving at a NIC, or a MAC
// feedback verdict falling due (nic == nil).
type delivery struct {
	when time.Time
	seq  uint64

	nic   *NIC
	frame Frame
	cb    func(delivered bool) // MAC feedback; nil unless SendWithFeedback
	ok    bool                 // verdict passed to cb
}

// engine is the event core installed on every Network except the legacy
// reference used by the differential tests. Queue, anchor and stats are
// guarded by the owning Network's mutex; epochs run on the clock goroutine.
type engine struct {
	net *Network

	q        deliveryHeap
	seq      uint64
	anchor   vclock.Timer
	anchorAt time.Time // zero when no anchor is armed
	runFn    func()    // run, bound once so arming allocates no closure

	engStats EngineStats

	// scratch reused across epochs (touched only by the clock goroutine).
	batch []*delivery
	free  []*delivery
}

// newDeliveryLocked takes a (zeroed) delivery from the free list or
// allocates one.
func (e *engine) newDeliveryLocked() *delivery {
	if n := len(e.free); n > 0 {
		d := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return d
	}
	return &delivery{}
}

// scheduleLocked enqueues a delivery at the absolute instant when,
// assigning its commit sequence, and keeps the anchor invariant: whenever
// the queue is non-empty, one vclock timer is armed at its earliest
// deadline. Caller holds the network mutex.
func (e *engine) scheduleLocked(d *delivery, when time.Time) {
	d.when = when
	d.seq = e.seq
	e.seq++
	e.q.push(d)
	if e.anchorAt.IsZero() || when.Before(e.anchorAt) {
		e.armLocked(when)
	}
}

// armLocked (re)arms the anchor at the absolute deadline when. The old
// anchor, if any, is stopped rather than reset so the replacement picks up
// a fresh registration sequence — the virtual clock then orders it among
// equal-deadline protocol timers exactly where a newly scheduled
// per-delivery timer would have landed. Caller holds the network mutex;
// the lock order network→clock is safe because vclock invokes callbacks
// with its own lock released.
func (e *engine) armLocked(when time.Time) {
	if e.anchor != nil {
		e.anchor.Stop()
	}
	e.anchorAt = when
	if v, ok := e.net.clock.(*vclock.Virtual); ok {
		e.anchor = v.AfterFuncAt(when, e.runFn)
		return
	}
	e.anchor = e.net.clock.AfterFunc(when.Sub(e.net.clock.Now()), e.runFn)
}

// rearmLocked re-establishes the anchor invariant after an epoch. A
// same-instant follow-on (zero-delay link) gets a fresh timer at the
// current instant, which the clock fires after every timer already queued
// there — matching the legacy path, where such a delivery's timer was also
// registered behind them.
func (e *engine) rearmLocked() {
	if e.q.len() == 0 {
		if e.anchor != nil {
			e.anchor.Stop()
			e.anchor = nil
		}
		e.anchorAt = time.Time{}
		return
	}
	e.armLocked(e.q.min().when)
}

// run is the anchor callback: pop the epoch due now, commit each delivery
// in (when, seq) order, re-arm. Receiver upcalls run inside the commit
// loop; any Send they make re-enters the medium immediately, drawing loss
// and fault randomness and scheduling follow-on deliveries in exactly the
// order the legacy path would.
func (e *engine) run() {
	n := e.net
	n.mu.Lock()
	now := n.clock.Now()
	e.anchorAt = time.Time{}
	batch := e.batch[:0]
	for e.q.len() > 0 && !e.q.min().when.After(now) {
		batch = append(batch, e.q.pop())
	}
	if len(batch) == 0 {
		e.batch = batch
		e.rearmLocked()
		n.mu.Unlock()
		return
	}
	es := EpochStats{Now: now, Events: len(batch), CommitLag: now.Sub(batch[0].when)}
	obs := n.obs
	epochObs := n.epochObs
	n.mu.Unlock()

	for _, d := range batch {
		if d.nic != nil {
			d.nic.deliver(d.frame)
		}
		if d.cb != nil {
			d.cb(d.ok)
		}
	}

	n.mu.Lock()
	for i, d := range batch {
		// Zeroed on recycling, so the free list keeps no payload or
		// decode memo alive.
		*d = delivery{}
		e.free = append(e.free, d)
		batch[i] = nil
	}
	e.batch = batch[:0]
	e.rearmLocked()
	es.QueueDepth = e.q.len()
	e.engStats.Epochs++
	es.Epoch = e.engStats.Epochs
	e.engStats.Events += uint64(es.Events)
	if es.Events > e.engStats.MaxEpochEvents {
		e.engStats.MaxEpochEvents = es.Events
	}
	n.mu.Unlock()

	if obs != nil {
		obs.engEpochs.Inc()
		obs.engEpochEvents.Add(uint64(es.Events))
	}
	// The epoch observer runs outside every lock, after the commit loop,
	// on the clock goroutine — so bus events interleave deterministically
	// with the spans the epoch just committed.
	if epochObs != nil {
		epochObs(es)
	}
}

// deliveryHeap is a binary min-heap of deliveries ordered by (when, seq),
// hand-rolled rather than container/heap to keep pushes and pops free of
// interface conversions on the hot path.
type deliveryHeap struct {
	items []*delivery
}

func (h *deliveryHeap) len() int       { return len(h.items) }
func (h *deliveryHeap) min() *delivery { return h.items[0] }

func (h *deliveryHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if !a.when.Equal(b.when) {
		return a.when.Before(b.when)
	}
	return a.seq < b.seq
}

func (h *deliveryHeap) push(d *delivery) {
	h.items = append(h.items, d)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *deliveryHeap) pop() *delivery {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
