// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of simulated processes (one goroutine each) under
// a single virtual clock. Exactly one process executes at any instant: the
// engine's dispatch loop is a baton that migrates between goroutines, so
// all engine and process state is accessed by at most one goroutine at a
// time and no locking is required. Given identical inputs, a simulation is
// bit-reproducible.
//
// Time is measured in integer nanoseconds of virtual time. Ties between
// events scheduled for the same instant are broken by scheduling order
// (FIFO), which keeps runs deterministic.
//
// # Host performance
//
// The single-goroutine-at-a-time invariant is also the kernel's fast-path
// licence: whichever goroutine currently runs owns every piece of engine
// state outright, so it may mutate the clock and the event queue directly
// instead of asking an engine goroutine to do it. Four consequences:
//
//   - Zero-handoff Advance: when no queued event fires at or before now+d,
//     Advance(d) simply sets now += d and returns — no channel operation,
//     no event-queue traffic. This is the overwhelmingly common case for
//     the per-operation costs (MsgOverhead, serialization, flush waits)
//     that the RMA and scheduler layers charge.
//   - Coalesced handoffs: when Advance or Park must interleave with queued
//     events, the yielding process runs the dispatch loop inline. Callbacks
//     fire on the spot, and if the next event resumes the very process that
//     yielded, it just keeps running — a handoff costs a channel round-trip
//     only when control genuinely moves to a different process.
//   - Pooled events: the queue is a concrete 4-ary min-heap over event
//     values (no container/heap interface boxing, no per-event pointer), so
//     steady-state dispatch performs zero heap allocations per event.
//   - Inline steps: a process that sleeps in a loop (an idle scheduler
//     polling for work) calls AdvanceLoop with a non-blocking step. The
//     step is stored on the Proc, and when the process's resume event pops,
//     whichever goroutine holds the baton calls the step right there and
//     re-queues the process with the same fast-path check and FIFO key an
//     Advance would use. The process's goroutine is switched to only when
//     the step reports it has blocking work, so a sleeping loop costs heap
//     operations, not goroutine switches.
//
// None of this changes simulated timestamps: the fast paths are taken only
// when the slow path would produce the identical schedule, and the golden
// digest tests in internal/bench pin that equivalence down.
//
// # Parallel host execution
//
// Engines created by NewEngineShards relax the one-goroutine invariant:
// processes are assigned to shards, each with its own event queue and
// clock, and shards drain conservative time windows on separate host
// goroutines (see shard.go for the protocol and its determinism argument).
// Every mode runs the same event loop, a lane: one queue, clock and baton
// with a single copy of the dispatch, drain and fast-path code. The serial
// engine and a sharded engine's global phase run on the Engine's own lane,
// and each shard runs its parallel rounds on a lane of its own, so
// everything above holds per lane. A sharded engine degenerates to the
// serial one when asked for one shard.
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// event is one queue entry, stored by value: either a process resume
// (proc != nil) or an engine-context callback (fire != nil).
//
// key is the tie-break within an instant. Events created in engine or
// process context get the next value of a FIFO counter (scheduling order,
// exactly the pre-parallel kernel's behaviour); events created by
// Proc.ScheduleWake carry a caller-chosen key in a space that sorts after
// all FIFO keys, so their relative order is a property of the workload
// (e.g. rank number), not of which host goroutine created them first. The
// parallel engine's cross-shard merge depends on that location-independence.
type event struct {
	at    Time
	key   uint64
	proc  *Proc
	fire  func()
	shard int32 // owning shard for fire events (sharded engines only)
}

// Key spaces for event.key. FIFO keys count up from zero; each shard's
// parallel-round keys live in a disjoint band above them; keyed wakes sort
// last within an instant in every mode.
const (
	keyShardShift = 40                           // FIFO counters stay below 1<<40
	keyedBase     = uint64(1) << 63              // ScheduleWake keys
	keyedMask     = keyedBase - 1                // caller key must fit below keyedBase
	keyShardMask  = uint64(1)<<keyShardShift - 1 // per-shard FIFO width
)

// EngineStats counts kernel activity for observability. All counters are
// host-side bookkeeping: reading or resetting them never affects virtual
// time.
type EngineStats struct {
	Events       uint64 // events popped from the queue
	FastAdvances uint64 // Advances that bumped the clock with no queue traffic
	Handoffs     uint64 // baton transfers between process goroutines
	Callbacks    uint64 // engine-context callbacks fired
	Spawns       uint64 // processes created
	Rounds       uint64 // parallel rounds completed (sharded engines)
	Splits       uint64 // global→parallel transitions (sharded engines)
}

// lane is one event loop: an event queue with its clock, FIFO key band
// and baton. The Engine embeds the lane that runs the serial engine and a
// sharded engine's global phase; each shard embeds the lane that runs its
// parallel rounds. At most one goroutine holds a lane's baton at a time,
// so its state needs no locking.
type lane struct {
	now     Time
	queue   []event // 4-ary min-heap ordered by (at, key)
	seq     uint64
	band    uint64        // FIFO key band: 0 on the engine's lane, per shard above it
	root    chan struct{} // the loop hands the baton back to drain when it stops
	live    procList      // processes homed on this lane
	current *Proc
	stats   EngineStats

	// pins is set on a sharded engine's own lane, which stops once no pin
	// is held so that pending events run in parallel rounds instead.
	pins *atomic.Int32
	// pub is set on the engine's own lane, whose pops refresh the
	// engine's live snapshots; shard lanes do not publish.
	pub *Engine
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine (serial) or NewEngineShards
// (parallel host execution, see shard.go).
type Engine struct {
	lane

	// sh is non-nil for engines created by NewEngineShards with more than
	// one shard. All parallel behaviour hangs off it; when nil, the
	// engine's lane is the whole kernel.
	sh *sharded
	// parallel is set while a sharded engine runs a parallel round. Only
	// the coordinator writes it, between phases.
	parallel bool

	// liveNow/liveEvents are low-frequency snapshots of the clock and the
	// dispatched-event count, published for host-side progress reporting
	// (LiveTime/LiveEvents). They are written by whichever goroutine holds
	// the baton — every few thousand pops on the serial path, at round
	// boundaries on the sharded path — so reading them from a heartbeat
	// goroutine is race-free, cheap, and never perturbs the simulation.
	liveNow    atomic.Int64
	liveEvents atomic.Uint64
}

// liveEvery sets how many serial event pops elapse between live-snapshot
// publications (a power of two; the check is a mask on a counter the pop
// path maintains anyway).
const liveEvery = 4096

// LiveTime returns a recent snapshot of the virtual clock. Unlike Now it
// may be called from any host goroutine while the engine runs; the value
// trails the true clock by at most one publication interval.
func (e *Engine) LiveTime() Time { return e.liveNow.Load() }

// LiveEvents returns a recent snapshot of the total events dispatched,
// with the same concurrency contract as LiveTime.
func (e *Engine) LiveEvents() uint64 { return e.liveEvents.Load() }

// publishLive refreshes the live snapshots from the aggregate stats. Only
// call with the engine quiescent or the baton held.
func (e *Engine) publishLive() {
	now := e.now
	ev := e.stats.Events
	if e.sh != nil {
		for _, shd := range e.sh.shards {
			ev += shd.stats.Events
			if shd.now > now {
				now = shd.now
			}
		}
	}
	e.liveNow.Store(now)
	e.liveEvents.Store(ev)
}

// procList is an intrusive doubly-linked list of live processes, threaded
// through Proc.livePrev/liveNext. It replaces the engine's former
// map[*Proc]struct{} live/parked sets: at 16K+ processes the map buckets
// dominated kernel setup memory, while the intrusive links cost two words
// inside the Proc itself, insert and exit are O(1), and the parked state
// reads straight off the Proc flag the kernel maintains anyway. The list
// is only ever walked for deadlock diagnostics.
type procList struct {
	head *Proc
	n    int
}

func (l *procList) add(p *Proc) {
	p.liveNext = l.head
	if l.head != nil {
		l.head.livePrev = p
	}
	l.head = p
	l.n++
}

func (l *procList) remove(p *Proc) {
	if p.livePrev != nil {
		p.livePrev.liveNext = p.liveNext
	} else {
		l.head = p.liveNext
	}
	if p.liveNext != nil {
		p.liveNext.livePrev = p.livePrev
	}
	p.livePrev, p.liveNext = nil, nil
	l.n--
}

// names returns "name(state)" diagnostics for every live process, for
// deadlock reports.
func (l *procList) names() []string {
	var out []string
	for p := l.head; p != nil; p = p.liveNext {
		state := "running"
		if p.parked {
			state = "parked"
		}
		out = append(out, p.Name+"("+state+")")
	}
	return out
}

// NewEngine returns a new engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	e := &Engine{}
	e.root = make(chan struct{})
	e.pub = e
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Stats returns the cumulative kernel counters. On a sharded engine the
// per-shard counters are folded in; call it only while the engine is idle
// or in a global phase. Counter values (Handoffs, FastAdvances, ...) are
// host-execution details and may legitimately differ between shard counts
// even though all simulated observables are bit-identical.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	if e.sh != nil {
		s.Rounds = e.sh.rounds
		s.Splits = e.sh.splits
		for _, shd := range e.sh.shards {
			s.Events += shd.stats.Events
			s.FastAdvances += shd.stats.FastAdvances
			s.Handoffs += shd.stats.Handoffs
			s.Callbacks += shd.stats.Callbacks
			s.Spawns += shd.stats.Spawns
		}
	}
	return s
}

// eventLess orders the heap by deadline, then by tie-break key (FIFO
// within an instant for engine- and process-scheduled events).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// heapPush inserts ev into the 4-ary heap held in q and returns the
// (possibly reallocated) slice. Shared by the serial queue and the
// per-shard queues.
func heapPush(q []event, ev event) []event {
	q = append(q, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	return q
}

// heapPop removes and returns the earliest event from the heap in q.
func heapPop(q []event) (event, []event) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the proc/closure reference for GC
	q = q[:n]
	i := 0
	for {
		min := i
		base := 4*i + 1
		end := base + 4
		if end > n {
			end = n
		}
		for c := base; c < end; c++ {
			if eventLess(&q[c], &q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top, q
}

// fastAdvance reports whether an Advance of d (already scaled) may take
// the zero-handoff fast path: no queued event fires at or before now+d.
func (l *lane) fastAdvance(d Time) bool {
	return d > 0 && (len(l.queue) == 0 || l.queue[0].at > l.now+d)
}

// push inserts ev into the lane's queue.
func (l *lane) push(ev event) { l.queue = heapPush(l.queue, ev) }

// pop removes and returns the earliest event from the lane's queue.
func (l *lane) pop() event {
	l.stats.Events++
	if l.stats.Events&(liveEvery-1) == 0 && l.pub != nil {
		l.pub.publishLive()
	}
	top, q := heapPop(l.queue)
	l.queue = q
	return top
}

// nextKey returns the lane's next FIFO tie-break key.
func (l *lane) nextKey() uint64 {
	l.seq++
	return l.band | l.seq&keyShardMask
}

// scheduleResume queues a resume of p at time t.
func (l *lane) scheduleResume(p *Proc, t Time) {
	l.push(event{at: t, key: l.nextKey(), proc: p})
}

// stopped reports whether the loop must give up the baton: the queue is
// empty, or this is a sharded engine's lane and no pin holds it global.
func (l *lane) stopped() bool {
	return len(l.queue) == 0 || l.pins != nil && l.pins.Load() == 0
}

// transfer hands the baton to q, starting its goroutine on first resume.
// The caller must not touch lane state after transfer returns until it is
// itself resumed (it blocks on its own resume channel, blocks on root, or
// exits).
func (l *lane) transfer(q *Proc) {
	l.stats.Handoffs++
	l.current = q
	if !q.started {
		q.started = true
		go q.run()
		return
	}
	q.resume <- struct{}{}
}

// next pops and runs events until one must run on a process goroutine,
// and returns that process; it returns nil once the lane stops. Callbacks
// fire inline, and a popped process with a pending AdvanceLoop step has
// the step run inline, so it is returned only when the step finishes.
func (l *lane) next() *Proc {
	for !l.stopped() {
		ev := l.pop()
		l.now = ev.at
		if ev.proc == nil {
			l.current = nil
			l.stats.Callbacks++
			ev.fire()
			continue
		}
		if ev.proc.step != nil && !l.runStep(ev.proc) {
			continue
		}
		return ev.proc
	}
	l.current = nil
	return nil
}

// dispatch runs the event loop while this goroutine holds the baton. It
// pops events and fires engine-context callbacks inline until either
//
//   - it pops a resume for self: it returns with the baton still held, so
//     the caller simply continues running (no channel traffic at all), or
//   - it pops a resume for another process: it hands the baton over and,
//     when self expects to run again later, blocks until resumed, or
//   - the lane stops: it returns the baton to drain (deadlock detection
//     and phase switches happen there); a blocked self resumes once a
//     later loop pops its queued resume.
//
// self is nil when the caller will never run again (process exit).
func (l *lane) dispatch(self *Proc) {
	q := l.next()
	switch {
	case q == nil:
		l.root <- struct{}{}
	case q == self:
		l.current = self
		return
	default:
		l.transfer(q)
	}
	if self != nil {
		// After a stop, self resumes once a later phase or round pops its
		// queued resume, or never: a process still parked when the
		// simulation drains can only leak, exactly as one blocked on a
		// channel nobody sends on would, and Run reports the deadlock.
		<-self.resume
	}
}

// drain runs the lane from its host goroutine (Run, the sharded
// coordinator or a shard worker) until it stops, taking the baton back
// on root after each handoff.
func (l *lane) drain() {
	for q := l.next(); q != nil; q = l.next() {
		l.transfer(q)
		<-l.root
	}
}

// runStep runs the pending AdvanceLoop step of q, whose resume event just
// popped, on the goroutine holding the baton. It keeps calling the step
// while each requested sleep takes the fast path, exactly as the loop
// would on q's own goroutine. It returns false when q went back on the
// queue (the caller goes on dispatching) and true when the step finished,
// so that q itself must now run.
func (l *lane) runStep(q *Proc) bool {
	l.current = q
	for {
		d, ok := q.step()
		if !ok {
			q.step = nil
			return true
		}
		if d = q.scaled(d); l.fastAdvance(d) {
			l.now += d
			l.stats.FastAdvances++
			continue
		}
		l.scheduleResume(q, l.now+d)
		return false
	}
}

// At schedules fn to run in engine context at time t. fn must not block;
// it runs between process executions. Scheduling in the past is an error.
// On a sharded engine, At may only be called before Run or while the
// engine is in its global (serial) phase.
func (e *Engine) At(t Time, fn func()) {
	if e.parallel {
		panic("sim: At called during a parallel round; use Proc.ScheduleWake or schedule before Run")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := event{at: t, key: e.nextKey(), fire: fn}
	if cur := e.current; cur != nil && cur.shd != nil {
		ev.shard = int32(cur.shd.id)
	}
	e.push(ev)
}

// After schedules fn to run in engine context after duration d.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Spawn creates a new simulated process that will begin executing fn at the
// current virtual time (after already-queued events for this instant).
// The name is used in diagnostics only. On a sharded engine the process
// inherits the spawning process's shard (shard 0 from engine context); use
// SpawnOn to choose a shard explicitly.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	shard := 0
	if e.sh != nil && e.current != nil && e.current.shd != nil {
		shard = e.current.shd.id
	}
	return e.SpawnOn(shard, name, fn)
}

// SpawnOn is Spawn with an explicit shard assignment. The process's events
// run on that shard's host worker during parallel rounds. On a serial
// engine the shard index is ignored. SpawnOn may only be called before Run
// or during a global phase.
func (e *Engine) SpawnOn(shard int, name string, fn func(*Proc)) *Proc {
	if e.parallel {
		panic("sim: Spawn during a parallel round")
	}
	p := &Proc{
		Name:   name,
		eng:    e,
		resume: make(chan struct{}),
		body:   fn,
	}
	e.stats.Spawns++
	if e.sh != nil {
		p.shd = e.sh.shards[shard]
	}
	p.home().live.add(p)
	e.scheduleResume(p, e.now)
	return p
}

// Current returns the process currently executing (nil between events).
// Useful for layers that need to know on whose behalf a call is running.
func (e *Engine) Current() *Proc { return e.current }

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked with no pending wakeup.
type DeadlockError struct {
	// Parked lists the names of the stuck processes.
	Parked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events: %v", len(d.Parked), d.Parked)
}

// Run executes events until the queue is empty. It returns a *DeadlockError
// if any process is still alive (parked forever) when the queue drains, and
// nil otherwise. Run may be called at most once on a sharded engine.
func (e *Engine) Run() error {
	if e.sh != nil {
		e.runSharded()
	} else {
		e.drain()
	}
	names := e.live.names()
	if e.sh != nil {
		for _, s := range e.sh.shards {
			names = append(names, s.live.names()...)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		return &DeadlockError{Parked: names}
	}
	return nil
}

// Proc is a simulated process. Its methods must only be called from the
// goroutine running the process body (with the exception of Wake, which may
// be called from any process or engine-context callback).
type Proc struct {
	// Name identifies the process in diagnostics.
	Name string

	eng     *Engine
	shd     *shard // nil on serial engines
	resume  chan struct{}
	body    func(*Proc)
	started bool
	dead    bool
	parked  bool
	permits int32 // packs beside the flags: Proc stays in the 96-byte size class

	// livePrev/liveNext thread the engine's (or shard's) intrusive list
	// of live processes; see procList.
	livePrev, liveNext *Proc

	// scaleNum/scaleDen stretch Advance durations (straggler modelling);
	// scaleNum == 0 means nominal speed.
	scaleNum, scaleDen int64

	// step is the pending AdvanceLoop step while the process sleeps in
	// one; the kernel runs it inline when the process's resume pops.
	step func() (Time, bool)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// lane returns the lane that runs p now: its shard's during a parallel
// round, the engine's otherwise.
func (p *Proc) lane() *lane {
	if e := p.eng; !e.parallel {
		return &e.lane
	}
	return &p.shd.lane
}

// home returns the lane whose live list holds p: its shard's on a sharded
// engine, the engine's on a serial one.
func (p *Proc) home() *lane {
	if p.shd != nil {
		return &p.shd.lane
	}
	return &p.eng.lane
}

// run is a process goroutine's top-level frame. The exit handling is
// deferred so that a body terminated by runtime.Goexit (e.g. t.Fatal in
// tests) still passes the baton on instead of deadlocking the host.
func (p *Proc) run() {
	defer p.exit()
	p.body(p)
}

// exit retires the process and passes the baton to the next event (or
// back to drain if the lane has stopped).
func (p *Proc) exit() {
	p.dead = true
	p.home().live.remove(p)
	p.lane().dispatch(nil)
}

// Now returns the current virtual time: the process's shard clock during
// parallel rounds, the global clock otherwise.
func (p *Proc) Now() Time { return p.lane().now }

// Advance blocks the process for d nanoseconds of virtual time, modelling
// local computation or fixed-cost operations. Advance(0) yields without
// advancing the clock, letting same-instant events interleave
// deterministically.
//
// When no queued event fires at or before now+d, Advance takes the
// zero-handoff fast path: the process would be resumed next in any case, so
// the clock is bumped directly and control never leaves this goroutine. An
// event scheduled at exactly now+d forces the slow path — it carries an
// earlier sequence number than the resume this Advance would enqueue, so
// FIFO tie-breaking says it must run first. Advance(0) always takes the
// slow path: its purpose is to interleave same-instant events.
func (p *Proc) Advance(d Time) {
	d = p.scaled(d)
	l := p.lane()
	if l.fastAdvance(d) {
		l.now += d
		l.stats.FastAdvances++
		return
	}
	l.scheduleResume(p, l.now+d)
	l.dispatch(p)
}

// scaled checks an Advance duration and applies the process's time scale.
func (p *Proc) scaled(d Time) Time {
	if d < 0 {
		panic("sim: negative Advance")
	}
	if p.scaleNum > 0 {
		d = d * p.scaleNum / p.scaleDen
	}
	return d
}

// AdvanceLoop sleeps in a loop: it behaves exactly like
//
//	for {
//		p.Advance(d)
//		if d, ok = step(); !ok {
//			return
//		}
//	}
//
// with the same clock, event order, keys and FastAdvances, but each time
// the process's resume pops, the kernel calls step on whichever goroutine
// holds the baton instead of switching to this process's goroutine. The
// process itself runs again only once step returns false. step must
// therefore not block (no Advance, Park or other kernel call that yields),
// must act on the process's behalf only through state the kernel owns
// anyway (the clock via Now, queued wakes), and must not rely on running
// on this goroutine. On a sharded engine the step runs inline in the
// global phase and in parallel rounds alike.
func (p *Proc) AdvanceLoop(d Time, step func() (Time, bool)) {
	for {
		p.step = step
		p.Advance(d)
		if p.step == nil {
			return // the kernel ran the step until it returned false
		}
		// Advance took the fast path: run the step here.
		p.step = nil
		var ok bool
		if d, ok = step(); !ok {
			return
		}
	}
}

// SetTimeScale stretches every subsequent Advance duration by num/den,
// modelling a process whose core runs slower than nominal (a straggler:
// 10/1 means ten times slower). SetTimeScale(0, 0) — or any num <= 0 —
// restores nominal speed. The scale applies at Advance time only; it never
// reinterprets durations already charged, so it may be flipped mid-run
// (e.g. from an engine callback at a fault-window boundary). Unlike most
// Proc methods it touches only this process's fields, so it may be called
// from any simulation goroutine or engine callback.
func (p *Proc) SetTimeScale(num, den int64) {
	if num > 0 && den <= 0 {
		panic("sim: SetTimeScale with non-positive denominator")
	}
	p.scaleNum, p.scaleDen = num, den
}

// Park suspends the process until another process (or engine callback)
// calls Wake. If Wake was already called since the last Park, the permit is
// consumed and Park returns immediately without yielding the clock.
func (p *Proc) Park() {
	if p.permits > 0 {
		p.permits--
		return
	}
	p.parked = true
	p.lane().dispatch(p)
}

// Wake unparks p at the current virtual time. If p is not parked, a permit
// is stored and the next Park returns immediately. Each Wake grants exactly
// one Park.
//
// During a parallel round, Wake may only target a process on the caller's
// own shard; cross-shard wakeups must go through Proc.ScheduleWake, which
// routes them via the window-boundary mailboxes.
func (p *Proc) Wake() {
	if !p.parked {
		p.permits++
		return
	}
	p.parked = false
	l := p.lane()
	l.scheduleResume(p, l.now)
}
