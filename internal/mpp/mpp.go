// Package mpp is a miniature MIMD runtime: it stands in for the
// "general-purpose MIMD computer architecture" the paper assumes (§2).
// A Run launches P processes (goroutines under the simulation engine),
// giving each a rank and collective operations (barrier, reductions,
// gather) in the style parallel programs of the era used.
//
// # Interconnect models
//
// Collectives (Gather, AlltoallvSparse) can charge modeled communication time
// under two composable models, both off by default so communication is
// free and existing programs' timings are bit-identical:
//
//   - Per-process link (SetLink): every message a process injects or
//     receives costs a fixed per-message time plus its bytes at the
//     process's link bandwidth. Exchange time is governed by the busiest
//     process and is independent of how many other processes communicate
//     at once — an uncontended, full-bisection network.
//
//   - Shared link (SetBisection): the group shares one bisection
//     bandwidth pool. Each collective charges every process the total
//     cross-link volume of the whole exchange against the pool, so
//     exchange time grows with rank count × message volume — P ranks
//     exchanging pairwise messages of m bytes cost O(P²·m/B) rather than
//     the per-process model's O(P·m/b). This is the contention real
//     machines exhibit, and what makes aggregator placement matter for
//     collective I/O (package collective's locality-aware domains).
//
// The pool is a reservation timeline (Bisection): each exchange reserves
// its cross volume once, and a reservation issued while an earlier one
// is still draining queues behind it, so two in-flight exchanges share
// the pool's bandwidth instead of each seeing the full pool. Serialized
// exchanges (the only kind a single group can produce, since collectives
// are barrier-bracketed) are charged exactly as before; the queueing
// matters when several groups share one pool (SetBisectionPool) or when
// chunked exchanges from a pipelined collective land back to back.
//
// Chunked exchanges (NewSparseExchange / SparseExchange.Round) split one
// logical personalized exchange into several rounds so a consumer can
// overlap round k's delivery with other work — the exchange engine of
// package collective's pipelined two-phase I/O. A chunked exchange
// charges the same totals as the equivalent single AlltoallvSparse:
// per-message setup time (SetLink's msg cost) is charged once per
// communicating pair for the whole exchange, not once per round, and
// Traffic counts one message per pair; bytes are charged as they move.
//
// Under both models a self-message (rank → itself) is a local copy and
// is never charged. Traffic reports the accumulated cross-link volume,
// counted whether or not a model is configured, so tests can measure
// how many bytes an algorithm moved over the interconnect.
//
// # Sparse exchanges
//
// The exchanges carry their payloads as explicit (rank, payload) message
// lists: a process pays only for the pairs it actually communicates
// with, payloads transfer by reference instead of by copy, and receive
// lists are recycled through a pool (RecycleRecv). The original dense
// forms (Alltoallv, NewExchange), which take and return rank-indexed
// slices and so touch all P slots per round, are retained in the test
// suite as comparison baselines: charging is identical by construction —
// the same per-message setup, the same byte totals against the link and
// the pool, the same Traffic counts, the same barrier structure — so a
// program moved from the dense to the sparse form reports bit-identical
// modeled times; only the wall-clock cost of simulating it changes.
//
// # Topology-aware bisection (optional)
//
// SetTopology splits the group into halves. With a topology configured,
// only traffic that crosses the cut is charged against the bisection
// pool (self-side messages still pay per-process link costs), and a
// process whose round moved no cross-cut bytes skips the pool wait
// entirely — senders that finish early release the pool to others
// instead of idling until the collective's drain. Off by default;
// without a topology pool charging is unchanged.
package mpp

import (
	"fmt"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Proc is one process of a parallel program: a sim.Proc plus its rank
// and the group's collectives.
type Proc struct {
	*sim.Proc
	rank  int
	group *Group
}

// Rank reports this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Probe reports the group's attached recorder, this rank's trace track,
// and the attach prefix (nil/zero when detached) — the hook layers
// built on a group use to inherit its flight recorder.
func (p *Proc) Probe() (*probe.Recorder, probe.TrackID, string) {
	g := p.group
	if g.rec == nil {
		return nil, 0, ""
	}
	return g.rec, g.rankTrk[p.rank], g.prPrefix
}

// Size reports the group size.
func (p *Proc) Size() int { return p.group.size }

// Barrier blocks until every process in the group has arrived.
func (p *Proc) Barrier() { p.group.barrier.Wait(p.Proc) }

// Compute models work for the given duration of virtual time.
func (p *Proc) Compute(d time.Duration) { p.Sleep(d) }

// Bisection is a shared-link bandwidth pool: a reservation timeline over
// one pool of aggregate bisection bandwidth. Exchanges reserve their
// cross-link volume in FIFO order, so a reservation issued while an
// earlier one is still draining starts only when the pool frees up —
// concurrent exchanges share the pool rather than each seeing its full
// bandwidth. A pool may be shared by several groups (SetBisectionPool)
// to model jobs contending for one interconnect. Only engine-managed
// processes may drive a pool (strict alternation is its locking).
type Bisection struct {
	bw   float64 // bytes per second
	free time.Duration
}

// NewBisection returns a pool of bytesPerSec aggregate bandwidth.
// bytesPerSec <= 0 yields a pool that never charges (uncontended).
func NewBisection(bytesPerSec float64) *Bisection {
	return &Bisection{bw: bytesPerSec}
}

// reserve books vol bytes on the pool starting no earlier than now and
// no earlier than the end of every prior reservation, returning the time
// the reservation drains. The FIFO queueing is what makes two in-flight
// exchanges share the pool instead of double-counting its bandwidth.
func (b *Bisection) reserve(now time.Duration, vol int64) time.Duration {
	start := now
	if b.free > start {
		start = b.free
	}
	b.free = start + time.Duration(float64(vol)/b.bw*float64(time.Second))
	return b.free
}

// Group is a set of processes executing one parallel program.
type Group struct {
	size    int
	barrier *sim.Barrier
	// interconnect model (zero: communication is free, the historical
	// default — see SetLink and SetBisection)
	linkMsg   time.Duration
	linkBytes float64    // per-process bytes per second; 0 = infinite
	bisection *Bisection // shared pool; nil = uncontended
	// cross-link traffic accounting (self-messages excluded)
	trafMsgs  int64
	trafBytes int64
	// crossVol accumulates the current collective's cross-link volume:
	// each process adds its contribution before the entry barrier and
	// subtracts it after the exit barrier, so between the barriers the
	// field holds the whole exchange's total (identical for every
	// reader) and it drains back to zero with no designated resetter —
	// a process can only re-enter the next collective once its own
	// subtraction has run, and add/subtract commute.
	crossVol int64
	// per-exchange pool reservation: the first process to charge the
	// pool between a collective's barriers makes one reservation for the
	// whole exchange and stashes its drain time; the others reuse it.
	// Reset (idempotently) after the exit barrier, like crossVol.
	exCharged bool
	exEnd     time.Duration
	// reduction scratch: every rank's contribution, and the result
	// rank 0 folds from them once per call
	redVals   []float64
	redOut    float64
	gather    [][]byte
	gatherBuf [][]byte   // per-rank retained Gather copies, reused per call
	a2a       [][][]byte // a2a[src][dst]: dense Alltoallv scratch (lazy)
	// sparse exchange state: per-rank inboxes plus a free list of
	// consumed receive lists handed back through RecycleRecv
	sin       [][]RecvMsg
	inboxPool [][]RecvMsg
	// topo, when non-nil, assigns each rank a side of the bisection cut;
	// only cross-cut traffic then charges the pool (see SetTopology)
	topo []int
	// epoch counts interconnect-model reconfigurations (SetLink,
	// SetBisection, SetBisectionPool, SetTopology). Layers that cache
	// model-derived decisions (collective's schedule cache) compare it
	// to detect that a cached decision was priced under a stale model.
	epoch uint64
	// flight recorder (nil: detached); one trace track per rank
	rec      *probe.Recorder
	prPrefix string
	rankTrk  []probe.TrackID
	poolWait *probe.Histogram
}

// Run launches fn on size processes under the engine and returns the
// group (join with Engine.Run or a surrounding sim.Group).
func Run(e *sim.Engine, size int, name string, fn func(p *Proc)) (*Group, *sim.Group) {
	g := &Group{
		size:    size,
		barrier: sim.NewBarrier(size),
		redVals: make([]float64, size),
		gather:  make([][]byte, size),
	}
	var join sim.Group
	for r := 0; r < size; r++ {
		rank := r
		join.Spawn(e, fmt.Sprintf("%s-%d", name, rank), func(sp *sim.Proc) {
			fn(&Proc{Proc: sp, rank: rank, group: g})
		})
	}
	return g, &join
}

// ReduceSum performs a barrier-synchronized sum reduction: every process
// contributes v and all receive the total, summed in rank order (so the
// floating-point result does not depend on scheduling).
func (p *Proc) ReduceSum(v float64) float64 {
	return p.reduce(v, func(vals []float64) float64 {
		var sum float64
		for _, x := range vals {
			sum += x
		}
		return sum
	})
}

// ReduceMax performs a barrier-synchronized max reduction.
func (p *Proc) ReduceMax(v float64) float64 {
	return p.reduce(v, func(vals []float64) float64 {
		max := vals[0]
		for _, x := range vals[1:] {
			if x > max {
				max = x
			}
		}
		return max
	})
}

// reduce gathers every rank's v and returns fold over them, indexed by
// rank. Rank 0 folds once between the two barriers and every rank reads
// the shared result after the second, so a call costs O(P) in total
// rather than O(P) per rank. A rank that returns early and re-enters
// cannot clobber the result: rank 0 rewrites it only after the next
// call's first barrier, which every rank must reach first.
func (p *Proc) reduce(v float64, fold func(vals []float64) float64) float64 {
	g := p.group
	g.redVals[p.rank] = v
	p.Barrier()
	if p.rank == 0 {
		g.redOut = fold(g.redVals)
	}
	p.Barrier()
	return g.redOut
}

// Gather collects each process's payload; rank 0's slice of all payloads
// is returned to every process (valid until the next collective). With a
// link model configured (SetLink) each process is charged for injecting
// its payload and receiving the other processes' payloads; under a shared
// link (SetBisection) the whole exchange volume is additionally charged
// against the pool. A single-process group gathers locally and crosses no
// link.
func (p *Proc) Gather(payload []byte) [][]byte {
	g := p.group
	if g.gatherBuf == nil {
		g.gatherBuf = make([][]byte, g.size)
	}
	// Reuse this rank's retained buffer: the result is only promised
	// valid until the next collective, so the copy from the prior Gather
	// is dead by the time we overwrite it.
	cp := append(g.gatherBuf[p.rank][:0], payload...)
	g.gatherBuf[p.rank] = cp
	g.gather[p.rank] = cp
	cross := int64(g.size-1) * int64(len(payload))
	crossPool := int64(g.othersAcross(p.rank)) * int64(len(payload))
	if g.size > 1 {
		// The payload reaches size-1 remote processes; the process's own
		// copy is local. A 1-process gather is pure copy: no link charge.
		p.chargeLink(1, int64(len(payload)))
		g.trafMsgs += int64(g.size - 1)
		g.trafBytes += cross
		g.crossVol += crossPool
	}
	p.Barrier()
	out := g.gather
	var in, inPool int64
	for r, pl := range out {
		if r != p.rank {
			in += int64(len(pl))
			if g.crossCut(r, p.rank) {
				inPool += int64(len(pl))
			}
		}
	}
	p.chargeLink(g.size-1, in)
	p.chargePool(g.crossVol, crossPool+inPool)
	p.Barrier()
	if g.size > 1 {
		g.crossVol -= crossPool
	}
	g.exCharged = false
	return out
}

// SetLink configures the modeled interconnect: every message a process
// injects or receives costs msg fixed time plus its bytes at bytesPerSec
// through the process's link. The zero configuration (the default) keeps
// communication free, so existing programs' timings are unchanged.
// Configure before the group's processes start communicating.
func (g *Group) SetLink(msg time.Duration, bytesPerSec float64) {
	g.linkMsg = msg
	g.linkBytes = bytesPerSec
	g.epoch++
}

// ModelEpoch reports how many times the group's interconnect model has
// been reconfigured (SetLink, SetBisection, SetBisectionPool,
// SetTopology). Consumers that cache decisions priced under the model —
// the collective layer's schedule cache — compare epochs to invalidate
// on reconfiguration.
func (g *Group) ModelEpoch() uint64 { return g.epoch }

// ModelEpoch reports the model epoch of the proc's group.
func (p *Proc) ModelEpoch() uint64 { return p.group.epoch }

// LinkModel reports the group's interconnect parameters — per-message
// latency, per-process bandwidth (0 = infinite), and the shared
// bisection pool's aggregate bandwidth (0 = uncontended) — for cost
// models that weigh exchange traffic against device access
// (blockio.CostModel).
func (g *Group) LinkModel() (msg time.Duration, bytesPerSec, bisectionBytesPerSec float64) {
	if g.bisection != nil {
		bisectionBytesPerSec = g.bisection.bw
	}
	return g.linkMsg, g.linkBytes, bisectionBytesPerSec
}

// LinkModel reports the interconnect parameters of the proc's group.
func (p *Proc) LinkModel() (msg time.Duration, bytesPerSec, bisectionBytesPerSec float64) {
	return p.group.LinkModel()
}

// SetBisection configures the shared-link (contention) model: the whole
// group shares one pool of bytesPerSec aggregate bisection bandwidth,
// and every collective charges each process the exchange's total
// cross-link volume against the pool. Zero (the default) keeps the
// network uncontended. Composes with SetLink: per-process injection and
// receive costs are charged in addition to the pool. Configure before
// the group's processes start communicating.
func (g *Group) SetBisection(bytesPerSec float64) {
	g.epoch++
	if bytesPerSec <= 0 {
		g.bisection = nil
		return
	}
	g.bisection = NewBisection(bytesPerSec)
}

// SetBisectionPool attaches an existing pool, which may be shared with
// other groups on the same engine: their exchanges then queue on one
// reservation timeline, modeling several parallel jobs contending for
// one interconnect. nil detaches the pool. Configure before the group's
// processes start communicating.
func (g *Group) SetBisectionPool(pool *Bisection) {
	if pool != nil && pool.bw <= 0 {
		pool = nil
	}
	g.bisection = pool
	g.epoch++
}

// SetTopology assigns each rank a side of the bisection cut: side[r] is
// an arbitrary side label for rank r (typically 0 or 1 for the two
// halves of the machine). With a topology configured, only traffic
// between ranks on different sides charges the shared bisection pool —
// same-side messages still pay per-process link costs (SetLink) and
// still count in Traffic, but they do not cross the cut the pool
// models. A process that moved no cross-cut bytes in a collective skips
// the pool wait entirely, and the processes that did wait only until
// the shared reservation drains, so early finishers release bandwidth
// within the round. nil restores the default (every non-self message
// charges the pool). Configure before the group's processes start
// communicating; len(side) must equal the group size.
func (g *Group) SetTopology(side []int) {
	if side != nil && len(side) != g.size {
		panic("mpp: SetTopology side length != group size")
	}
	g.topo = side
	g.epoch++
}

// SetProbe attaches a flight recorder to the group: one trace track per
// rank named "<prefix>/<rank>", exchange-round and bisection-pool-wait
// spans on those tracks, a pool-wait histogram, and the group's traffic
// counters as pull gauges. Pass nil to detach. Recording only reads the
// virtual clock, so charging — and every modeled time — is unchanged.
// Configure before the group's processes start communicating.
func (g *Group) SetProbe(r *probe.Recorder, prefix string) {
	g.rec = r
	if r == nil {
		g.prPrefix, g.rankTrk, g.poolWait = "", nil, nil
		return
	}
	g.prPrefix = prefix
	g.rankTrk = make([]probe.TrackID, g.size)
	for i := range g.rankTrk {
		g.rankTrk[i] = r.Track(fmt.Sprintf("%s/%d", prefix, i))
	}
	m := r.Metrics()
	g.poolWait = m.Histogram("mpp." + prefix + ".pool_wait_s")
	m.Gauge("mpp."+prefix+".msgs", func() float64 { return float64(g.trafMsgs) })
	m.Gauge("mpp."+prefix+".bytes", func() float64 { return float64(g.trafBytes) })
}

// Probe reports the group's attached recorder (nil when detached) and
// the track-name prefix it was attached under. Layers built on a group
// (package collective) inherit its recorder through this.
func (g *Group) Probe() (*probe.Recorder, string) { return g.rec, g.prPrefix }

// crossCut reports whether a message from rank a to rank b crosses the
// bisection cut (and so charges the pool). Without a topology every
// non-self pair crosses; a == b never does.
func (g *Group) crossCut(a, b int) bool {
	if a == b {
		return false
	}
	if g.topo == nil {
		return true
	}
	return g.topo[a] != g.topo[b]
}

// othersAcross counts the ranks a broadcast-style payload from rank r
// must cross the cut to reach (all other ranks without a topology).
func (g *Group) othersAcross(r int) int {
	if g.topo == nil {
		return g.size - 1
	}
	n := 0
	for o, s := range g.topo {
		if o != r && s != g.topo[r] {
			n++
		}
	}
	return n
}

// Traffic reports the cross-link volume the group's collectives have
// moved so far: messages and bytes that actually crossed a link, with
// each message counted once at its source and self-messages excluded.
// Accumulated whether or not a link model is configured (accounting
// only — it never charges time).
func (g *Group) Traffic() (msgs, bytes int64) {
	return g.trafMsgs, g.trafBytes
}

// chargeLink models msgs messages totalling bytes crossing this process's
// link. A no-op (not even a yield) when no link model is configured, so
// the default timing stays bit-identical. msgs may be zero with nonzero
// bytes (later rounds of a chunked exchange, whose setup was already
// charged): only the byte cost applies then.
func (p *Proc) chargeLink(msgs int, bytes int64) {
	g := p.group
	if (msgs <= 0 && bytes <= 0) || (g.linkMsg == 0 && g.linkBytes == 0) {
		return
	}
	var d time.Duration
	if msgs > 0 {
		d = time.Duration(msgs) * g.linkMsg
	}
	if g.linkBytes > 0 && bytes > 0 {
		d += time.Duration(float64(bytes) / g.linkBytes * float64(time.Second))
	}
	if d > 0 {
		p.Sleep(d)
	}
}

// chargePool models vol total bytes crossing the group's shared
// bisection pool. Every process of the collective calls it with the same
// volume (a pure function of the exchange's payloads) between the
// exchange's barriers; the first caller reserves the volume on the pool
// timeline once, and every caller then waits for the longer of its own
// drain time (vol at pool bandwidth from its own arrival — the
// historical per-process charge) and the shared reservation's end (which
// exceeds it only when an earlier reservation is still draining, i.e.
// under cross-exchange contention). A no-op when the shared model is
// off.
//
// own is the caller's personal cross-cut volume (bytes it sent plus
// bytes it received across the bisection cut). It matters only with a
// topology configured (SetTopology): a process with own == 0 skips the
// pool wait, and participating processes wait only for the shared
// reservation to drain rather than their own full-volume drain —
// finishing early releases the pool within the round.
func (p *Proc) chargePool(vol, own int64) {
	g := p.group
	if g.bisection == nil || vol <= 0 {
		return
	}
	if g.topo != nil && own <= 0 {
		return // no cross-cut involvement: the pool is not this process's wait
	}
	if !g.exCharged {
		g.exEnd = g.bisection.reserve(p.Now(), vol)
		g.exCharged = true
	}
	until := g.exEnd
	if g.topo == nil {
		if mine := p.Now() + time.Duration(float64(vol)/g.bisection.bw*float64(time.Second)); mine > until {
			until = mine
		}
	}
	if until > p.Now() {
		from := p.Now()
		p.SleepUntil(until)
		if g.rec != nil {
			g.rec.Span(g.rankTrk[p.rank], "mpp", "pool.wait", from, until, 0, 0)
			g.poolWait.AddDuration(until - from)
		}
	}
}
