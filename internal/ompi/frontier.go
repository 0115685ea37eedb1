package ompi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Frontier is a job's step-boundary agreement: the shared future
// frontier that replaces a per-step collective. Every rank of one job
// incarnation holds the same Frontier (ranks share an address space, so
// "is a checkpoint pending?" is an atomic load, not a message).
//
// In steady state a rank at boundary k publishes k with one atomic store
// and reads the pending flag with one atomic load; nothing else happens.
// When the first directive of a new interval is delivered to any rank,
// the frontier is armed under its mutex, in this order: set pending,
// read every rank's published boundary, fix the target T = max+1. Go
// atomics are sequentially consistent, so a rank that published after
// that read sees pending and reads T under the mutex; a rank that read
// pending=false had already published a boundary the read covers, so
// T lies beyond it. No rank can pass T, and every rank serves the
// interval at exactly boundary T — the uniform frontier the CRCP
// bookmark quiesce and Proc.Checkpoints rely on. Ranks not yet stepping
// count as -1, so a directive delivered before Run lands at boundary 0.
//
// Intervals are served in FIFO order: while one is armed, later ones
// queue and are armed (with a fresh read of the published boundaries)
// once every rank has served the one ahead, or once it is fenced.
type Frontier struct {
	pending atomic.Bool
	// ver changes whenever the armed agreement changes, so a rank parked
	// at T can poll for "re-evaluate" without taking the mutex.
	ver atomic.Uint64

	mu    sync.Mutex
	board *board       // the current generation's published boundaries
	queue []*agreement // FIFO; queue[0] is armed while the queue is non-empty
}

// board is one generation's published boundaries: entry r holds rank r's
// latest boundary plus one, so zero means "not stepping yet" (-1). A rank
// publishes into the board it captured on entering its step loop; Reset
// swaps in a fresh board, so a rank of a superseded incarnation writes
// into an orphaned one that no arming reads.
type board struct {
	k []atomic.Int64
}

// agreement is one interval's place in the frontier queue.
type agreement struct {
	interval int
	target   int64 // the boundary every rank serves it at; set when armed
	served   []bool
	left     int // ranks that have not served it yet
}

// NewFrontier returns an idle frontier for an n-rank job.
func NewFrontier(n int) *Frontier {
	return &Frontier{board: &board{k: make([]atomic.Int64, n)}}
}

// Reset starts a new generation: every armed or queued interval is
// dropped and a fresh board reads every rank as "not stepping" until it
// re-enters the step loop. Called when an in-job recovery completes,
// while every rank is parked, so the rebuilt job's boundaries count from
// zero again. A superseded incarnation still running (a killed rank
// finishing a long step) publishes into the old board, so it cannot move
// the next target.
func (f *Frontier) Reset() {
	f.mu.Lock()
	f.board = &board{k: make([]atomic.Int64, len(f.board.k))}
	f.queue = nil
	f.pending.Store(false)
	f.ver.Add(1)
	f.mu.Unlock()
}

// Fence drops every queued or armed interval <= iv (their coordinators
// abandoned them) and arms the next one, if any. Ranks parked at a
// fenced interval's target wake and step on.
func (f *Frontier) Fence(iv int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		return
	}
	head := f.queue[0]
	kept := f.queue[:0]
	for _, a := range f.queue {
		if a.interval > iv {
			kept = append(kept, a)
		}
	}
	clear(f.queue[len(kept):])
	f.queue = kept
	if len(kept) == 0 || kept[0] != head {
		f.armHeadLocked()
	}
}

// current returns the board a rank publishes into; read once per
// step-loop entry.
func (f *Frontier) current() *board {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.board
}

// publish records that rank has reached boundary k on board b and
// reports whether an agreement is pending. This is the whole
// steady-state cost of a step boundary.
func (f *Frontier) publish(b *board, rank, k int) bool {
	b.k[rank].Store(int64(k) + 1)
	return f.pending.Load()
}

// arm queues interval iv, arming it at once when nothing is ahead of it.
// Called from Deliver for every directive; repeats are no-ops.
func (f *Frontier) arm(iv int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.queue {
		if a.interval == iv {
			return
		}
	}
	n := len(f.board.k)
	f.queue = append(f.queue, &agreement{interval: iv, served: make([]bool, n), left: n})
	if len(f.queue) == 1 {
		f.armHeadLocked()
	}
}

// armHeadLocked fixes the target of queue[0]: set pending first, then
// read every rank's published boundary, then T = max+1. With an empty
// queue it clears pending instead.
func (f *Frontier) armHeadLocked() {
	f.ver.Add(1)
	if len(f.queue) == 0 {
		f.pending.Store(false)
		return
	}
	f.pending.Store(true)
	// A board entry is boundary+1, so the largest entry is max+1 = T.
	t := int64(0)
	for r := range f.board.k {
		t = max(t, f.board.k[r].Load())
	}
	f.queue[0].target = t
}

// due reports which interval rank must serve at boundary k, if any.
// b is the board the rank publishes into: a rank of a superseded
// generation is never due. Passing an armed target without
// serving it would break the uniform frontier, so that is an error.
func (f *Frontier) due(b *board, rank, k int) (iv int, ok bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b != f.board || len(f.queue) == 0 {
		return 0, false, nil
	}
	a := f.queue[0]
	switch {
	case a.served[rank] || int64(k) < a.target:
		return 0, false, nil
	case int64(k) == a.target:
		return a.interval, true, nil
	default:
		return 0, false, fmt.Errorf("ompi: rank %d at boundary %d passed interval %d's frontier %d", rank, k, a.interval, a.target)
	}
}

// Pending reports whether an interval is queued or armed.
func (f *Frontier) Pending() bool { return f.pending.Load() }

// served records that rank answered interval iv's directive, whether at
// a boundary or inline in Proc.Checkpoint, on board b. The last rank to
// serve the armed interval pops it and arms the next. A rank of a
// superseded generation serves nothing.
func (f *Frontier) served(b *board, rank, iv int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b != f.board {
		return
	}
	for i, a := range f.queue {
		if a.interval != iv {
			continue
		}
		if !a.served[rank] {
			a.served[rank] = true
			a.left--
		}
		if a.left > 0 {
			return
		}
		f.queue = append(f.queue[:i], f.queue[i+1:]...)
		if i == 0 {
			f.armHeadLocked()
		}
		return
	}
}
