// Parallel host execution: a conservatively synchronized sharded engine.
//
// # Model
//
// NewEngineShards partitions processes across S shards, each with its own
// event queue, clock, and host worker goroutine. Every queue is a lane,
// the one event loop the serial engine runs too. Execution alternates
// between two phases:
//
//   - Global phase: the engine's own lane, exactly as the serial engine
//     runs it. One queue, one clock, one goroutine at a time. Used
//     whenever any process holds a global pin (PinGlobal), i.e. during
//     phases whose cross-rank interactions are finer-grained than the
//     lookahead (the fork-join scheduler's steal protocol pokes victim
//     deques directly); the lane stops once no pin is held.
//   - Parallel rounds: each shard's worker drains its own lane to
//     quiescence — a dynamically sized conservative window that ends when
//     every process on the shard has parked, blocked, or exited. Shards
//     share no mutable state during a round; cross-shard communication is
//     deferred into per-shard-pair mailboxes and merged at the round
//     boundary in (time, key) order, each destination shard folding its
//     own mail in on its own worker so merges parallelize too. The
//     coordinator signals only shards that actually have queued events
//     (or mail), so per-round host synchronization scales with active
//     shards, not configured shards.
//
// # Why round-boundary merges are safe (lookahead)
//
// Cross-shard events are only created by Proc.ScheduleWake, whose contract
// requires the wake time to lie at least `lookahead` — the network model's
// minimum link latency — after the sender's clock, and the target process
// to be quiescent (parked) from before the sender observed it until the
// wake time. Under those conditions the destination shard's clock cannot
// pass the wake time before the merge delivers it: the barrier release
// time max(arrivals) + ceil(log2 n)·latency exceeds every shard's
// quiesced clock, because each shard's clock is the maximum arrival time
// of its own ranks. Both directions are asserted: the send side checks
// t ≥ sender.now + lookahead for cross-shard wakes, and the merge panics
// if an event would land in its destination shard's past. A violation is
// therefore a loud bug, never a silent reordering.
//
// # Why digests are bit-identical to the serial engine
//
// Three mechanisms, none of which depend on host scheduling:
//
//  1. Location-independent tie-break keys. Within an instant, events sort
//     by a 64-bit key: FIFO counters (serial behaviour) < per-shard banded
//     counters < caller-chosen keyed wakes. Cross-shard merges therefore
//     land in an order fixed by (time, key) alone.
//  2. Quiescence-defined rounds. A round's contents are a function of the
//     queues at its start, so the round structure itself is deterministic;
//     host goroutines only decide *when* work happens, never *what order*
//     observable interactions commit in. Within a round, shards touch
//     disjoint simulation state (data-race-freedom across shards is the
//     layering contract: conflicting accesses are separated by barriers,
//     which span round boundaries).
//  3. Deterministic phase switches. Parallel→global transitions trigger at
//     round boundaries when a pin is held; global→parallel splits trigger
//     at event boundaries when no pin is held. Both conditions are
//     functions of simulated execution only.
//
// Host-side counters (EngineStats) are exempt: handoff and fast-advance
// counts describe how the host executed the schedule and legitimately
// differ across shard counts.
package sim

import (
	"fmt"
	"sync/atomic"
)

// sharded holds the parallel-execution extension of an Engine.
type sharded struct {
	shards    []*shard
	lookahead Time
	pins      atomic.Int32 // processes requiring the global phase
	started   bool
	rounds    uint64 // parallel rounds completed
	splits    uint64 // global→parallel transitions

	// active is the coordinator's reusable scratch list of shards selected
	// for the current signal (non-empty queues for a round, non-empty
	// inboxes for a merge), so per-round coordination cost follows the
	// number of shards with actual work, not the shard count.
	active []*shard
}

// shard is one host worker's slice of the simulation: a private lane
// (event queue, clock and process set) with a band of FIFO keys of its
// own. During parallel rounds exactly one goroutine (the shard worker or a
// process it handed the baton to) touches a shard's state, so the lane's
// no-locking argument holds per shard.
type shard struct {
	lane
	id      int
	eng     *Engine
	runCh   chan struct{} // coordinator → worker: run one round
	mergeCh chan struct{} // coordinator → worker: merge this shard's inbox
	doneCh  chan struct{} // worker → coordinator: round / merge finished
	inbox   [][]event     // mailbox per source shard, merged at round boundaries
	pending []event       // resumes for pin-parked processes, released at the global merge
}

// NewEngineShards returns an engine whose processes are partitioned across
// nshards host workers, synchronized conservatively with the given
// lookahead (the minimum virtual latency of any cross-shard interaction;
// use the network model's MinLatency). NewEngineShards(1, ...) returns a
// plain serial engine, so callers can thread a -procs knob straight
// through. Run may be called at most once on a sharded engine.
func NewEngineShards(nshards int, lookahead Time) *Engine {
	if nshards < 1 {
		panic("sim: NewEngineShards requires at least one shard")
	}
	e := NewEngine()
	if nshards == 1 {
		return e
	}
	if lookahead <= 0 {
		panic("sim: sharded engine requires positive lookahead")
	}
	sh := &sharded{lookahead: lookahead}
	for i := 0; i < nshards; i++ {
		s := &shard{
			id:      i,
			eng:     e,
			runCh:   make(chan struct{}),
			mergeCh: make(chan struct{}),
			doneCh:  make(chan struct{}),
			inbox:   make([][]event, nshards),
		}
		s.band = uint64(i+1) << keyShardShift
		s.root = make(chan struct{})
		sh.shards = append(sh.shards, s)
	}
	sh.active = make([]*shard, 0, nshards)
	e.sh = sh
	e.pins = &sh.pins
	return e
}

// Shards returns the number of host shards (1 for a serial engine).
func (e *Engine) Shards() int {
	if e.sh == nil {
		return 1
	}
	return len(e.sh.shards)
}

// Lookahead returns the conservative synchronization bound (0 for a serial
// engine).
func (e *Engine) Lookahead() Time {
	if e.sh == nil {
		return 0
	}
	return e.sh.lookahead
}

// Shard returns the index of the shard this process is assigned to.
func (p *Proc) Shard() int {
	if p.shd == nil {
		return 0
	}
	return p.shd.id
}

// PinGlobal declares that this process needs globally serialized execution
// (e.g. it is entering a fork-join region whose steal protocol interacts
// with other ranks at sub-lookahead granularity). If a parallel round is in
// progress, the process yields and resumes — at its current virtual time —
// once the engine has switched to the global phase. Pins nest; they are
// released with UnpinGlobal. No-op on a serial engine.
func (p *Proc) PinGlobal() {
	e := p.eng
	if e.sh == nil {
		return
	}
	e.sh.pins.Add(1)
	if !e.parallel {
		return
	}
	s := p.shd
	s.pending = append(s.pending, event{at: s.now, key: s.nextKey(), proc: p})
	s.dispatch(p)
}

// UnpinGlobal releases a PinGlobal. When the last pin is released the
// engine returns to parallel rounds at the next event boundary. No-op on a
// serial engine.
func (p *Proc) UnpinGlobal() {
	if p.eng.sh == nil {
		return
	}
	if p.eng.sh.pins.Add(-1) < 0 {
		panic("sim: UnpinGlobal without matching PinGlobal")
	}
}

// ScheduleWake schedules a Wake of q at time t, with an explicit
// caller-chosen tie-break key (unique per instant among keyed events; e.g.
// the target's rank number). Keyed wakes fire after all FIFO-scheduled
// events of the same instant, in key order, in every execution mode — the
// order is a property of the workload, not of which host worker scheduled
// first, which is what makes cross-shard wakeups deterministic.
//
// During a parallel round a cross-shard wake must satisfy
// t ≥ caller.Now() + lookahead, and q must already be parked and stay
// parked until t (barrier waiters satisfy both by construction).
func (p *Proc) ScheduleWake(q *Proc, t Time, key uint64) {
	if key&^keyedMask != 0 {
		panic("sim: ScheduleWake key out of range")
	}
	e := p.eng
	ev := event{at: t, key: keyedBase | key, fire: q.Wake}
	if q.shd != nil {
		ev.shard = int32(q.shd.id)
	}
	if l := p.lane(); !e.parallel || q.shd == p.shd {
		if t < l.now {
			panic(fmt.Sprintf("sim: wake at %d before now %d", t, l.now))
		}
		l.push(ev)
		return
	}
	s := p.shd
	if t < s.now+e.sh.lookahead {
		panic(fmt.Sprintf("sim: cross-shard wake at %d violates lookahead (shard %d clock %d + lookahead %d)",
			t, s.id, s.now, e.sh.lookahead))
	}
	q.shd.inbox[s.id] = append(q.shd.inbox[s.id], ev)
}

// runSharded is Run for sharded engines: it alternates global phases with
// parallel rounds until the simulation drains.
func (e *Engine) runSharded() {
	sh := e.sh
	if sh.started {
		panic("sim: Run called twice on a sharded engine")
	}
	sh.started = true
	for _, s := range sh.shards {
		go s.worker()
	}
	for {
		if e.drain(); len(e.queue) == 0 {
			break
		}
		// Split: distribute the global queue across the shard queues. The
		// queue pops in (at, key) order and ordered inserts keep each heap
		// valid, so per-shard order is exactly the global order restricted
		// to that shard.
		for len(e.queue) > 0 {
			var ev event
			ev, e.queue = heapPop(e.queue)
			sh.shards[ev.targetShard()].push(ev)
		}
		e.parallel = true
		sh.splits++
		for {
			// Only shards with queued events are signalled: an empty
			// shard's round is a no-op, so skipping its run/done
			// round-trip changes nothing observable while cutting
			// per-round host synchronization from O(shards) to O(active
			// shards) — the dominant cost for barrier-paced workloads
			// whose rounds touch a few shards at a time. Reading queue
			// lengths here is race-free: every worker is quiescent
			// between rounds (the doneCh handshake ordered its last
			// writes before this read).
			run := sh.active[:0]
			for _, s := range sh.shards {
				if len(s.queue) > 0 {
					run = append(run, s)
				}
			}
			for _, s := range run {
				s.runCh <- struct{}{}
			}
			for _, s := range run {
				<-s.doneCh
			}
			sh.rounds++
			// Merge phase: each destination shard with mail folds its own
			// inboxes into its queue on its own worker, concurrently with
			// the other destinations. Shards without mail skip the
			// round-trip entirely; when nothing moved anywhere the window
			// is exhausted.
			merge := sh.active[:0]
			for _, s := range sh.shards {
				for _, box := range s.inbox {
					if len(box) > 0 {
						merge = append(merge, s)
						break
					}
				}
			}
			for _, s := range merge {
				s.mergeCh <- struct{}{}
			}
			for _, s := range merge {
				<-s.doneCh
			}
			// Every worker is quiescent here (the doneCh handshakes above
			// ordered their last writes), so publishing the live progress
			// snapshot from the coordinator is race-free.
			e.publishLive()
			if sh.pins.Load() > 0 || len(merge) == 0 {
				break
			}
		}
		e.parallel = false
		e.mergeToGlobal()
	}
	for _, s := range sh.shards {
		close(s.runCh)
	}
	for _, s := range sh.shards {
		if s.now > e.now {
			e.now = s.now
		}
	}
}

// targetShard returns the shard an event belongs to when the global queue
// is split.
func (ev *event) targetShard() int {
	if ev.proc != nil && ev.proc.shd != nil {
		return ev.proc.shd.id
	}
	return int(ev.shard)
}

// mergeInbox delivers this shard's round-boundary mailboxes into its own
// queue, asserting conservativeness. It runs on the shard's worker during
// the merge phase, so the per-destination merges proceed concurrently;
// each worker touches only its own queue and clears only its own inboxes,
// and the coordinator's channel handshakes order every source shard's
// mailbox writes before this read.
func (s *shard) mergeInbox() {
	for src, box := range s.inbox {
		for _, ev := range box {
			if ev.at < s.now {
				panic(fmt.Sprintf("sim: conservative violation: event from shard %d at %d is in shard %d's past (clock %d, lookahead %d)",
					src, ev.at, s.id, s.now, s.eng.sh.lookahead))
			}
			s.push(ev)
		}
		s.inbox[src] = s.inbox[src][:0]
	}
}

// mergeToGlobal folds every shard queue and pin-park resume into the
// global queue for a global phase. Heap order makes the result pop in
// (at, key) order regardless of shard iteration order.
func (e *Engine) mergeToGlobal() {
	for _, s := range e.sh.shards {
		for len(s.queue) > 0 {
			var ev event
			ev, s.queue = heapPop(s.queue)
			e.push(ev)
		}
		for _, ev := range s.pending {
			e.push(ev)
		}
		s.pending = s.pending[:0]
	}
}

// worker is a shard's host goroutine: it runs one quiescence round (its
// lane drains to empty) or one inbox merge per coordinator request. The
// coordinator never signals both channels at once, and closes runCh to
// retire the worker.
func (s *shard) worker() {
	for {
		select {
		case _, ok := <-s.runCh:
			if !ok {
				return
			}
			s.drain()
			s.doneCh <- struct{}{}
		case <-s.mergeCh:
			s.mergeInbox()
			s.doneCh <- struct{}{}
		}
	}
}
