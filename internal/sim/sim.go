// Package sim provides a deterministic virtual-time execution engine for
// simulated parallel programs.
//
// The paper's experiments concern timing phenomena on 1989-era hardware:
// seek interference, bandwidth aggregation across drives, and overlap of
// I/O with computation. To reproduce those shapes deterministically on
// modern machines, the entire library is parameterized over a Context
// that supplies the current time and the ability to wait. Two
// implementations exist:
//
//   - Proc, a process managed by Engine, runs under virtual time. The
//     Engine is a strict-alternation discrete-event scheduler: exactly one
//     managed goroutine executes at any instant, and when all are parked
//     the earliest pending event (ties broken by creation order) fires.
//     Results are bit-for-bit reproducible.
//
//   - Wall, a trivial context for ordinary library use, where device
//     models complete instantly and Sleep is a no-op unless a scale
//     factor is configured.
//
// # Scalability
//
// The engine is built to make a simulated second cheap even at thousands
// of processes. Each process owns exactly one event slot, embedded in the
// Proc itself and tracked by an indexed min-heap, so a superseded park or
// double wake is resolved in place at schedule time and the heap never
// accumulates stale entries. Events scheduled for the current instant
// bypass the heap entirely via a FIFO ready list, so a barrier releasing
// P processes costs P appends, not P heap pushes. Finished process
// shells — struct, wake channel, and worker goroutine — are recycled
// through a free list, so spawn-heavy patterns (sim.Par fan-out per
// device access) stop paying per-spawn allocation and goroutine-creation
// costs after warm-up.
//
// Dispatch is a direct handoff. There is no scheduler goroutine in the
// loop: a process that parks or finishes runs the pick step itself
// (Engine.next) and resumes the chosen process by sending on that
// process's wake channel — one goroutine switch per dispatch rather
// than a round trip through the owner. When the parker is itself the
// next event (a lone process sleeping, or Sleep(0) with nothing else
// ready) it returns without touching a channel at all. Run only starts
// the first process and then waits for the run-over signal, which the
// process that finds nothing left to dispatch sends: on completion, or
// with a *Deadlock when processes remain parked with no pending event.
//
// All of this changes wall-clock cost only: the dispatch order, and
// therefore every modeled timestamp, is bit-identical to a naive
// heap-of-events scheduler.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/probe"
)

// Context supplies time to potentially blocking library operations. It
// plays the role context.Context plays for cancellation, but for virtual
// time: every operation that models a delay accepts a Context.
type Context interface {
	// Now reports the current time as an offset from the start of the
	// run (virtual for Proc, wall-clock-derived for Wall).
	Now() time.Duration
	// Sleep pauses the caller for d. Under virtual time the engine
	// advances; under Wall it sleeps scaled real time (or not at all).
	Sleep(d time.Duration)
}

// Event slot states for Proc.slot. Non-negative values index e.heap.
const (
	slotNone  = -1 // no pending event
	slotReady = -2 // queued on the ready list for the current instant
)

// Engine is a deterministic discrete-event scheduler for virtual-time
// processes. Create one with NewEngine, add processes with Go, then call
// Run from the owning (unmanaged) goroutine.
//
// Engine enforces strict alternation: at most one managed goroutine runs
// between scheduling decisions, so shared state touched only by managed
// processes needs no locking, and every run of the same program is
// identical. All engine and process methods must be called either from
// the currently running managed process or (before Run) from the owner.
type Engine struct {
	now       time.Duration
	seq       uint64
	heap      []*Proc // indexed min-heap on (evAt, evSeq); one slot per proc
	ready     []*Proc // FIFO of procs whose event time equals now
	readyHead int
	live      []*Proc       // live processes (order immaterial; swap-removed)
	free      []*Proc       // finished shells available for reuse by Go
	over      chan struct{} // signalled once when nothing is left to dispatch
	err       error         // Run's result, set by whoever signals over
	started   bool
	// Flight-recorder hooks (nil when no recorder is attached; all are
	// nil-safe, so the off path costs one pointer check per site).
	prDispatch *probe.Counter
	prSpawn    *probe.Counter
	prBatch    *probe.Histogram
	batchN     float64 // dispatches at the current instant
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{over: make(chan struct{})}
}

// Now reports current virtual time. Valid from any managed process and,
// between events, from the owner.
func (e *Engine) Now() time.Duration { return e.now }

// SetProbe attaches a flight recorder to the engine: dispatch and spawn
// counters plus a same-instant batch-size histogram land in the
// recorder's metrics registry. Attaching (or detaching, with nil) never
// changes dispatch order or modeled time — the hooks are pure counting.
func (e *Engine) SetProbe(r *probe.Recorder) {
	m := r.Metrics()
	if m == nil {
		e.prDispatch, e.prSpawn, e.prBatch = nil, nil, nil
		return
	}
	e.prDispatch = m.Counter("sim.dispatches")
	e.prSpawn = m.Counter("sim.spawns")
	e.prBatch = m.Histogram("sim.batch_size")
	m.Gauge("sim.live_procs", func() float64 { return float64(len(e.live)) })
}

// Proc is a virtual-time process. It implements Context. All Proc methods
// must be called from the goroutine the engine created for it.
//
// A Proc value is only valid while its process is live: once the function
// passed to Go returns, the shell may be recycled for a later Go, so
// holding a *Proc across its completion and waking it is a protocol
// error (synchronization primitives and device queues only ever wake
// processes that are currently parked, which live processes are by
// construction).
type Proc struct {
	e       *Engine
	name    string
	wake    chan struct{}
	fn      func(*Proc)
	waiting bool
	dead    bool
	epoch   uint64
	// Embedded event slot: each process has at most one pending wakeup,
	// kept in-place so superseded schedules never leave heap garbage.
	evAt    time.Duration
	evSeq   uint64
	slot    int
	liveIdx int // index in e.live for O(1) removal
}

// Name reports the name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Go registers fn as a managed process. It may be called before Run or
// from a running managed process; the new process begins executing at the
// current virtual time, after the spawner next parks. Finished process
// shells (and their worker goroutines) are reused, so the returned *Proc
// must not be retained past fn's return.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.prSpawn.Add(1)
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.dead = false
	} else {
		p = &Proc{e: e, wake: make(chan struct{}), slot: slotNone}
		go p.loop()
	}
	p.name = name
	p.fn = fn
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	p.epoch++
	p.waiting = true // the worker goroutine is blocked on its start event
	e.schedule(e.now, p, p.epoch)
	return p
}

// loop is the worker goroutine body: run one process function per wake,
// return the shell to the engine's free list, and hand control to the
// next event (a finished process can never be its own next event). The
// goroutine exits when Run closes the shell's wake channel at the end
// of the run.
func (p *Proc) loop() {
	for {
		if _, ok := <-p.wake; !ok {
			return
		}
		fn := p.fn
		p.fn = nil
		fn(p)
		e := p.e
		last := len(e.live) - 1
		e.live[p.liveIdx] = e.live[last]
		e.live[p.liveIdx].liveIdx = p.liveIdx
		e.live[last] = nil
		e.live = e.live[:last]
		p.dead = true
		e.free = append(e.free, p)
		e.handoff(e.next())
	}
}

// schedule enqueues a wakeup for p at time at, bound to park epoch ep.
// Staleness is resolved here rather than at dispatch: under strict
// alternation a parked process cannot run (and so cannot finish or
// re-park) before its pending event fires, so conditions checked at
// schedule time still hold at dispatch time. A schedule for a process
// that already has an earlier-or-equal pending event is dropped — the
// earlier event is exactly the one the old pop-and-skip scheduler would
// have dispatched — and a strictly earlier schedule moves the slot in
// place (decrease-key), so no stale entries ever enter the heap.
func (e *Engine) schedule(at time.Duration, p *Proc, ep uint64) {
	e.seq++
	if p.dead || !p.waiting || ep != p.epoch {
		return // stale: process finished, running, or park superseded
	}
	if at < e.now {
		at = e.now
	}
	switch {
	case p.slot == slotNone:
		p.evAt, p.evSeq = at, e.seq
		if at == e.now {
			p.slot = slotReady
			e.ready = append(e.ready, p)
		} else {
			e.heapPush(p)
		}
	case at < p.evAt: // double schedule: keep the minimum (at, seq)
		p.evAt, p.evSeq = at, e.seq
		if at == e.now {
			e.heapRemove(p)
			p.slot = slotReady
			e.ready = append(e.ready, p)
		} else {
			e.heapUp(p.slot)
		}
	}
	// Otherwise the pending event fires no later; the new one is stale.
}

// park gives up control and blocks until resumed. The caller must have
// set waiting and bumped epoch (via SleepUntil/Park). The parking
// process runs the pick step itself: if its own event is next it simply
// continues (the self-dispatch fast path, no channel operation);
// otherwise it wakes the chosen process directly — or, when nothing is
// dispatchable, signals Run that the run is over — and waits on its own
// wake channel.
func (p *Proc) park() {
	e := p.e
	q := e.next()
	if q == p {
		return
	}
	e.handoff(q)
	<-p.wake
}

// handoff resumes q, or, when q is nil, signals Run that the run is
// over (e.err holds its result). The caller must touch no engine state
// afterwards: control now belongs to q (or to Run).
func (e *Engine) handoff(q *Proc) {
	if q == nil {
		e.over <- struct{}{}
		return
	}
	q.wake <- struct{}{}
}

// Sleep suspends the process for d of virtual time. Sleep(0) yields,
// allowing other already-scheduled same-time events to run first.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.SleepUntil(p.e.now + d)
}

// SleepUntil suspends the process until the given virtual time (which is
// clamped to now if already past).
func (p *Proc) SleepUntil(t time.Duration) {
	p.epoch++
	p.waiting = true
	p.e.schedule(t, p, p.epoch)
	p.park()
}

// Park suspends the process indefinitely; it resumes when another process
// calls Engine.Wake (or WakeAt) for it. Used to build synchronization
// primitives and device queues. Each Park must be matched by exactly one
// Wake; extra wakes for a superseded park are dropped harmlessly.
func (p *Proc) Park() {
	p.epoch++
	p.waiting = true
	p.park()
}

// Wake schedules the parked process p to resume at the current virtual
// time. Under strict alternation the target is guaranteed to be parked
// whenever another process runs, so this is race-free. Waking a process
// that has finished is a protocol error (its shell may already belong to
// a later Go).
func (e *Engine) Wake(p *Proc) { e.WakeAt(p, e.now) }

// WakeAt schedules the parked process p to resume at virtual time at.
func (e *Engine) WakeAt(p *Proc, at time.Duration) {
	e.schedule(at, p, p.epoch)
}

// Deadlock describes an engine run that stalled: processes remain but no
// runnable events are pending.
type Deadlock struct {
	At    time.Duration
	Procs []string // names of stuck processes
}

func (d *Deadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) parked forever: %v", d.At, len(d.Procs), d.Procs)
}

// Run executes scheduled processes until none remain. It must be called
// from the goroutine that owns the engine (not a managed process), and at
// most once. It returns a *Deadlock error if processes remain parked with
// no pending events; otherwise nil.
//
// Run itself dispatches only the first event. From then on each process
// that parks or finishes picks and resumes its successor (see park), and
// the process that finds nothing left to dispatch — the run complete, or
// a deadlock detected in next — signals Run, which reaps the pooled
// worker goroutines and returns.
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: Run called twice")
	}
	e.started = true
	if q := e.next(); q != nil {
		q.wake <- struct{}{}
		<-e.over
	}
	e.reapFree()
	return e.err
}

// next is the pick step: it removes the next event, marks its process
// running and returns it. It returns nil when nothing can be dispatched,
// leaving Run's result in e.err: nil when no process is live, a
// *Deadlock when processes remain but no event is pending.
//
// Dispatch order: among pending events, the minimum (time, schedule-seq)
// fires first. Events for the current instant live on a FIFO ready list;
// every heap event at the current instant was scheduled before time
// advanced here and so precedes every ready entry, which is why draining
// heap-at-now before the ready list preserves exact seq order.
func (e *Engine) next() *Proc {
	if len(e.live) == 0 {
		e.flushBatch()
		return nil
	}
	var p *Proc
	switch {
	case len(e.heap) > 0 && e.heap[0].evAt == e.now:
		p = e.heapPop()
	case e.readyHead < len(e.ready):
		p = e.ready[e.readyHead]
		e.ready[e.readyHead] = nil
		e.readyHead++
		if e.readyHead == len(e.ready) {
			e.ready = e.ready[:0]
			e.readyHead = 0
		}
		p.slot = slotNone
	case len(e.heap) > 0:
		e.flushBatch()
		e.now = e.heap[0].evAt
		p = e.heapPop()
	default:
		var names []string
		for _, q := range e.live {
			names = append(names, q.name)
		}
		sort.Strings(names)
		e.err = &Deadlock{At: e.now, Procs: names}
		return nil
	}
	if e.prDispatch != nil {
		e.prDispatch.Add(1)
		e.batchN++
	}
	p.waiting = false
	return p
}

// flushBatch folds the just-completed instant's dispatch count into the
// batch-size histogram (no-op when no recorder is attached).
func (e *Engine) flushBatch() {
	if e.prBatch != nil && e.batchN > 0 {
		e.prBatch.Add(e.batchN)
		e.batchN = 0
	}
}

// reapFree terminates pooled worker goroutines once the run is over so
// finished engines do not pin idle goroutines.
func (e *Engine) reapFree() {
	for i, p := range e.free {
		close(p.wake)
		e.free[i] = nil
	}
	e.free = nil
}

// Indexed binary min-heap over (evAt, evSeq), with each proc's position
// stored in p.slot so re-schedules adjust entries in place.

func (e *Engine) evLess(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.evAt != b.evAt {
		return a.evAt < b.evAt
	}
	return a.evSeq < b.evSeq
}

func (e *Engine) evSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].slot = i
	e.heap[j].slot = j
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.evLess(i, parent) {
			break
		}
		e.evSwap(i, parent)
		i = parent
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && e.evLess(l, min) {
			min = l
		}
		if r < n && e.evLess(r, min) {
			min = r
		}
		if min == i {
			return
		}
		e.evSwap(i, min)
		i = min
	}
}

func (e *Engine) heapPush(p *Proc) {
	p.slot = len(e.heap)
	e.heap = append(e.heap, p)
	e.heapUp(p.slot)
}

func (e *Engine) heapPop() *Proc {
	p := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[0].slot = 0
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 0 {
		e.heapDown(0)
	}
	p.slot = slotNone
	return p
}

// heapRemove deletes p from an arbitrary heap position.
func (e *Engine) heapRemove(p *Proc) {
	i := p.slot
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap[i].slot = i
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i < last {
		e.heapDown(i)
		e.heapUp(i)
	}
	p.slot = slotNone
}

// Wall is a Context for ordinary (non-simulated) execution. The zero
// value never sleeps and reports time elapsed since the first call; the
// epoch is latched exactly once, so a zero-value Wall shared across
// goroutines is safe.
type Wall struct {
	start time.Time
	once  sync.Once
	// Scale multiplies modeled durations into real sleeps; zero means
	// modeled delays are skipped entirely (functional mode).
	Scale float64
}

// NewWall returns a wall-clock context that skips modeled delays.
func NewWall() *Wall {
	w := &Wall{}
	w.once.Do(func() { w.start = time.Now() })
	return w
}

// Now reports wall time elapsed since the context was created (or since
// the first call, for a zero-value Wall).
func (w *Wall) Now() time.Duration {
	w.once.Do(func() { w.start = time.Now() })
	return time.Since(w.start)
}

// Sleep sleeps d scaled by w.Scale (not at all when Scale is zero).
func (w *Wall) Sleep(d time.Duration) {
	if w.Scale > 0 && d > 0 {
		time.Sleep(time.Duration(float64(d) * w.Scale))
	}
}

var (
	_ Context = (*Proc)(nil)
	_ Context = (*Wall)(nil)
)
