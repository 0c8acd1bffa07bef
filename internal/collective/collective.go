// Package collective implements two-phase collective I/O over parallel
// files — the cross-process, cross-file aggregation layer above the
// per-file vectored path.
//
// The paper's shared organizations (SS, GDA and friends) coordinate
// processes at the file layer, but every process still issues its own
// device requests, so fine-grained concurrent accesses interleave at the
// drives and the seek interference the paper measures is never repaired.
// Two-phase collective I/O (Thakur/Gropp/Lusk's MPI-IO optimization) fixes
// that by trading interconnect traffic — cheap — for device requests —
// expensive:
//
//  1. Plan. The ranks' request lists are combined into a union access
//     footprint over the file group's concatenated block space, and the
//     footprint is split into contiguous file domains, one per aggregator
//     rank (plan.go).
//  2. Exchange. Every rank ships the pieces of its buffer that fall in
//     each domain to that domain's aggregator (writes), or the
//     aggregators ship freshly read domains back to the ranks (reads),
//     in one mpp.AlltoallvSparse with modeled link cost.
//  3. Access. Each aggregator moves its whole domain with one
//     blockio.BatchVec — the cross-file batch — so pieces that are
//     physically adjacent on a device coalesce into single requests even
//     across files, and each device sees at most one request per
//     aggregator per collective.
//
// An 8-rank interleaved checkpoint that costs one device request per
// record independently collapses to one request per device per
// aggregator; TestCollectiveCoalescingWin enforces the modeled win.
package collective

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/ioserver"
	"repro/internal/mpp"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/stats"
)

// VecReq names one file of the collective's group and a scatter/gather
// descriptor against it: the file's fs blocks listed in Vec move to/from
// the calling rank's buffer at each segment's BufOff. A rank passes any
// number of VecReqs per collective call (several per file is fine as
// long as blocks and buffer ranges stay disjoint within the rank).
type VecReq struct {
	File int
	Vec  blockio.Vec
}

// Options tunes a collective handle. The zero value selects defaults
// (round-robin domains, overlapping writes rejected), which keep PR 3's
// modeled timings bit-identical.
type Options struct {
	// Aggregators is the number of file domains (and so the maximum
	// number of aggregator ranks performing device I/O). 0 selects
	// min(group size, device count), one file domain per device's worth
	// of parallelism. By default domain a is aggregated by rank a; see
	// Locality.
	Aggregators int

	// Locality assigns each file domain to the participating rank that
	// owns the largest share of the domain's footprint (ties to the
	// lowest rank) instead of round-robin rank order. Nearly-aligned
	// access patterns then keep most bytes local — self-messages cross
	// no link — which matters whenever the interconnect is contended
	// (mpp.Group.SetBisection). One rank may aggregate several domains;
	// LastStats reports the measured split.
	Locality bool

	// LastWriterWins permits cross-rank write overlaps with MPI-IO
	// ordering semantics: the outcome is as if the ranks wrote in rank
	// order, so the highest overlapping rank's bytes land — a
	// deterministic rule, unlike the racing independent writes it
	// replaces. Off (default) rejects overlapping collective writes.
	// Overlaps within one rank's request list remain errors either way.
	LastWriterWins bool

	// Service routes the nonblocking entry points (IWriteAll/IReadAll)
	// through an I/O server: instead of each aggregator executing its
	// domain batch inline, the batches are enqueued on this job's lane
	// of an ioserver.Server and the call returns a Handle immediately.
	// The server's QoS policy then decides when the batches run,
	// multiplexing this job against every other job sharing the
	// server's devices. nil (the default) leaves the blocking calls as
	// the only entry points; WriteAll/ReadAll never consult Service, so
	// the default modeled timings stay bit-identical.
	Service *ioserver.Job

	// ChunkBytes bounds each aggregator's staging memory and turns the
	// collective into a software pipeline (ROMIO's cb_buffer_size): every
	// file domain is cut into ChunkBytes-sized chunks and the exchange of
	// chunk k+1 proceeds concurrently with the device access of chunk k
	// (reads mirror this: the access of chunk k+1 overlaps the delivery
	// of chunk k), so the interconnect and the drives work at the same
	// time instead of strictly alternating. Each aggregator stages at
	// most two chunks per owned domain (double buffering). Sub-block
	// values round up to one block per chunk; values above the domain
	// size degenerate to a single round. 0 (the default) keeps the
	// unbounded single-shot two-phase schedule, whose modeled timings
	// are bit-identical to earlier releases.
	ChunkBytes int64

	// Strategy selects the access route of the blocking collective
	// calls. The zero value (and blockio.StrategyCollective) keeps the
	// two-phase exchange; StrategyVectored/StrategySieved route every
	// rank's requests as independent vectored/sieved Set transfers
	// (skipping the exchange entirely); StrategyAuto prices the three
	// routes per call — exchange traffic against the group's modeled
	// interconnect (mpp.Group.LinkModel), device requests against the
	// store's drive parameters — and picks the cheapest. Plan
	// validation, cross-rank overlap rejection, and LastWriterWins
	// semantics are identical on every route. The nonblocking entry
	// points (Service) always run two-phase.
	Strategy blockio.Strategy

	// PlanCache bounds the handle's schedule cache (schedule.go).
	// Iterative workloads issue the same request lists every iteration;
	// the handle fingerprints each call's gathered requests and, on a
	// match, replays the frozen schedule — validated plan, domain
	// assignment, chosen route, chunk windows, prepared per-domain
	// batch plans — rebinding only buffers and payloads. Replay is
	// bit-identical to a fresh build in modeled time and probe trace,
	// so caching is on by default: 0 selects the default capacity
	// (8 schedules, LRU), larger values retain more distinct patterns,
	// and a negative value disables caching (every call re-plans).
	// Schedules are invalidated by SetOptions and by interconnect-model
	// reconfiguration (mpp.Group.SetLink/SetBisection/SetBisectionPool/
	// SetTopology bump the group's model epoch).
	PlanCache int
}

// ExchangeStats reports where one collective call's exchange-phase bytes
// went — BytesMoved crossed the interconnect (rank ≠ domain aggregator),
// BytesLocal stayed on the aggregating rank (self-messages, free under
// both link models) — and how the call's two phases spent their time.
// Payload bytes are counted once per direction, so reads and writes of
// the same footprint report the same split.
//
// The time fields are unions of busy intervals across all ranks in the
// call's virtual-time window: ExchangeTime is the time at least one rank
// was inside the exchange (AlltoallvSparse or a pipelined round, including the
// collective's rendezvous waits), AccessTime the time at least one
// aggregator had device requests in flight, and Overlap the time both
// were true at once. The single-shot schedule (ChunkBytes 0) reports
// zero Overlap on writes — its phases are barrier-separated — and on
// reads can report only rendezvous overlap (ranks parked at the
// exchange while aggregators finish reading); real exchange/access
// concurrency needs the pipelined schedule, which reports it here.
// 1 - ExchangeTime/elapsed is the link idle fraction.
type ExchangeStats struct {
	BytesMoved int64
	BytesLocal int64

	ExchangeTime time.Duration
	AccessTime   time.Duration
	Overlap      time.Duration
}

// SameBytes reports whether two calls moved the same exchange split
// (the timing fields differ between reads and writes of one footprint;
// the byte split may not).
func (st ExchangeStats) SameBytes(o ExchangeStats) bool {
	return st.BytesMoved == o.BytesMoved && st.BytesLocal == o.BytesLocal
}

// Collective is a collective-I/O handle over a group of files sharing
// one device array, used by all ranks of one mpp group. ReadAll and
// WriteAll are collective calls: every rank of the group must call them
// the same number of times, in the same order (ranks with nothing to
// move pass empty request lists). The handle may be reused across calls;
// it must not be shared between different-sized groups.
type Collective struct {
	group *pfs.FileGroup
	size  int
	naggs int
	bs    int64
	opts  Options

	// per-call scratch, indexed by rank; safe under the engine's strict
	// alternation
	reqs  [][]VecReq
	bufs  [][]byte
	errs  []error
	err   error // the call's joined errs, built once by rank 0
	sched *schedule
	plErr error
	route route
	stats ExchangeStats
	// per-call phase busy intervals, appended by every rank (strict
	// alternation again) and folded into stats by rank 0 at the end.
	// Recording is pure Now() reads, so it never perturbs the schedule.
	commIv []stats.Interval
	ioIv   []stats.Interval

	// Nonblocking-call scratch: the Handle under construction, built by
	// rank 0 between the plan barriers and grabbed by every rank right
	// after (nonblock.go). Outstanding handles own their state, so this
	// slot is free for reuse the moment every rank has copied it.
	hScratch *Handle

	// Sparse-exchange scratch, shared by all ranks under strict
	// alternation. payPool recycles exchange payload buffers: a sender
	// packs into a pooled buffer, ownership rides the message, and the
	// consumer returns it once copied out, so steady-state rounds
	// allocate nothing. dstIdx (invariant: all -1 outside a pack call)
	// maps destination rank to its message while one rank packs; a pack
	// never parks the engine, so one shared array serves every rank.
	// msgScratch holds per-rank outgoing message lists, reused per call.
	payPool    [][]byte
	dstIdx     []int
	msgScratch [][]mpp.Msg

	// Single-shot aggregation staging, per rank: each rank's
	// owned-domain buffers, retained and resized across calls
	// (schedule.domBufs) so steady-state iterations allocate nothing.
	domScr [][][]byte

	// Schedule capture/replay state (schedule.go): the cached
	// schedules in MRU order, the interconnect-model stamp they were
	// built under, the fingerprint scratch, and the counters
	// PlanCacheStats reports.
	cacheCap   int
	cached     []*schedule
	cacheStamp modelStamp
	sigScratch []uint64

	hits, misses, evictions, invalidations uint64
}

// getPay pops a recycled payload buffer (length 0, capacity whatever it
// grew to) or returns nil for append to grow.
func (c *Collective) getPay() []byte {
	if n := len(c.payPool); n > 0 {
		b := c.payPool[n-1]
		c.payPool[n-1] = nil
		c.payPool = c.payPool[:n-1]
		return b[:0]
	}
	return nil
}

// putPay returns a fully consumed payload buffer to the pool.
func (c *Collective) putPay(b []byte) {
	if cap(b) > 0 {
		c.payPool = append(c.payPool, b)
	}
}

// Open builds a collective handle for a size-rank group over the file
// group.
func Open(g *pfs.FileGroup, size int, opts Options) (*Collective, error) {
	if g == nil {
		return nil, fmt.Errorf("collective: nil file group")
	}
	if size <= 0 {
		return nil, fmt.Errorf("collective: group size %d", size)
	}
	naggs := opts.Aggregators
	if naggs <= 0 {
		naggs = g.Store().Devices()
	}
	if naggs > size {
		naggs = size
	}
	c := &Collective{
		group:      g,
		size:       size,
		naggs:      naggs,
		bs:         int64(g.Store().BlockSize()),
		opts:       opts,
		reqs:       make([][]VecReq, size),
		bufs:       make([][]byte, size),
		errs:       make([]error, size),
		dstIdx:     make([]int, size),
		msgScratch: make([][]mpp.Msg, size),
		domScr:     make([][][]byte, size),
		cacheCap:   planCacheCap(opts.PlanCache),
	}
	for i := range c.dstIdx {
		c.dstIdx[i] = -1
	}
	return c, nil
}

// Group returns the underlying file group.
func (c *Collective) Group() *pfs.FileGroup { return c.group }

// Aggregators reports the number of file domains (with Options.Locality
// several may be aggregated by one rank).
func (c *Collective) Aggregators() int { return c.naggs }

// LastStats reports the exchange split (bytes moved over the
// interconnect vs bytes kept local) of the most recent successfully
// planned ReadAll/WriteAll. Valid once that call has returned on every
// rank; a reused handle overwrites it per call.
func (c *Collective) LastStats() ExchangeStats { return c.stats }

// WriteAll writes every rank's requests as one two-phase collective:
// ranks exchange their pieces with the domain aggregators, and each
// aggregator issues its whole domain as one cross-file batch. All ranks
// receive the same error (the join of every rank's failures).
func (c *Collective) WriteAll(p *mpp.Proc, reqs []VecReq, buf []byte) error {
	return c.run(p, true, reqs, buf)
}

// ReadAll reads every rank's requests as one two-phase collective: the
// aggregators read their domains as cross-file batches, then ship each
// rank its pieces — the read mirror of WriteAll.
func (c *Collective) ReadAll(p *mpp.Proc, reqs []VecReq, buf []byte) error {
	return c.run(p, false, reqs, buf)
}

// run is the collective engine shared by ReadAll/WriteAll.
func (c *Collective) run(p *mpp.Proc, write bool, reqs []VecReq, buf []byte) error {
	if p.Size() != c.size {
		// A group-size mismatch is a programming error; returning before
		// the first barrier leaves the other ranks waiting, which the
		// engine reports as a deadlock naming them.
		return fmt.Errorf("collective: handle opened for %d ranks, called from a %d-rank group", c.size, p.Size())
	}
	rank := p.Rank()
	rec, trk, prefix := p.Probe()
	c.reqs[rank], c.bufs[rank], c.errs[rank] = reqs, buf, nil
	p.Barrier()
	// One rank derives the shared schedule; it is a pure function of the
	// gathered requests and the machine model, so any rank would compute
	// the same one — which is also why a cached replay (scheduleFor) is
	// indistinguishable from a fresh build.
	if rank == 0 {
		c.sched, c.plErr = c.scheduleFor(p, write)
		if c.plErr == nil {
			// Route selection happens only after the plan validates, so
			// every strategy rejects bad requests (cross-rank write
			// overlap above all) with byte-identical errors.
			c.route = c.sched.route
			c.stats = c.sched.stats
			if c.route != routeTwoPhase {
				c.stats = ExchangeStats{} // independent routes exchange nothing
			}
			rec.Instant(trk, "collective", "plan", p.Now())
		}
		c.commIv, c.ioIv = c.commIv[:0], c.ioIv[:0]
	}
	p.Barrier()
	if c.plErr != nil {
		return c.plErr
	}
	sd := c.sched
	pl := sd.pl
	switch {
	case c.route != routeTwoPhase:
		c.runIndependent(p, sd, write, c.route == routeSieved)
	case pl.rounds > 0:
		// Chunked staging buffers configured (Options.ChunkBytes): the
		// pipelined schedule overlapping exchange with device access.
		c.runPipelined(p, sd, write, buf)
	case write:
		send := c.packRankMsgs(pl, rank, buf)
		t0 := p.Now()
		recv := p.AlltoallvSparse(send)
		c.commIv = append(c.commIv, stats.Interval{From: t0, To: p.Now()})
		exSpan := rec.Span(trk, "collective", "exchange", t0, p.Now(), 0, 0)
		// Assemble every owned domain from the delivered payloads, then
		// issue the device batches. Assembly is pure compute — it costs no
		// virtual time — so hoisting it above the first batch leaves the
		// modeled schedule bit-identical to interleaving it per domain.
		owned := sd.ownedOf[rank]
		dombufs := c.domBufs(rank, pl, owned)
		c.assembleDomains(pl, owned, recv, dombufs)
		p.RecycleRecv(recv)
		var ioTrk probe.TrackID
		if rec != nil && len(owned) > 0 {
			ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
		}
		var aggErrs []error
		for i, a := range owned {
			// p.Proc, not p: sim.Par recognizes the underlying engine
			// process, so the domain's per-device runs issue in parallel.
			t0 := p.Now()
			if err := sd.issueDomain(c, p, a, dombufs[i], true); err != nil {
				aggErrs = append(aggErrs, err)
			}
			c.ioIv = append(c.ioIv, stats.Interval{From: t0, To: p.Now()})
			rec.Span(ioTrk, "collective", "access", t0, p.Now(), int64(len(dombufs[i])), exSpan)
		}
		c.errs[rank] = errors.Join(aggErrs...)
	default:
		// Read every owned domain, then pack all outgoing payloads in one
		// non-parking section (the pack shares the handle's scratch, and
		// packing is free in virtual time — same schedule as packing each
		// domain right after its read).
		owned := sd.ownedOf[rank]
		dombufs := c.domBufs(rank, pl, owned)
		var aggErrs []error
		var ioTrk probe.TrackID
		var lastAcc probe.SpanID
		if rec != nil && len(owned) > 0 {
			ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
		}
		for i, a := range owned {
			t0 := p.Now()
			if err := sd.issueDomain(c, p, a, dombufs[i], false); err != nil {
				aggErrs = append(aggErrs, err)
			}
			c.ioIv = append(c.ioIv, stats.Interval{From: t0, To: p.Now()})
			lastAcc = rec.Span(ioTrk, "collective", "access", t0, p.Now(), int64(len(dombufs[i])), 0)
		}
		c.errs[rank] = errors.Join(aggErrs...)
		send := c.packDomainMsgs(pl, rank, owned, dombufs)
		t0 := p.Now()
		recv := p.AlltoallvSparse(send)
		c.commIv = append(c.commIv, stats.Interval{From: t0, To: p.Now()})
		rec.Span(trk, "collective", "exchange", t0, p.Now(), 0, lastAcc)
		c.scatterRankMsgs(pl, rank, recv, buf)
		p.RecycleRecv(recv)
	}
	p.Barrier()
	if rank == 0 {
		comm, acc := stats.Union(c.commIv), stats.Union(c.ioIv)
		c.stats.ExchangeTime = stats.Covered(comm)
		c.stats.AccessTime = stats.Covered(acc)
		c.stats.Overlap = stats.Overlap(comm, acc)
		c.err = joinRankErrs(c.errs)
	}
	// Hold everyone until rank 0 has joined the errors. c.err is safe to
	// read after this barrier even if a faster rank re-enters on a
	// reused handle: rank 0 overwrites it only after that next call's
	// second-to-last barrier, which every rank must reach first
	// (TestCollectiveReuseErrorVisibility).
	p.Barrier()
	return c.err
}

// joinRankErrs joins per-rank errors in rank order, each prefixed with
// its rank — the one error every rank of a collective call returns.
func joinRankErrs(rankErrs []error) error {
	var errs []error
	for r, err := range rankErrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
		}
	}
	return errors.Join(errs...)
}

// packRankMsgs builds rank's write-phase exchange messages, one per
// destination aggregator rank the footprint actually touches: for each
// touched domain in ascending order, the rank's clips against that
// domain concatenated onto the domain owner's payload. The (domain asc,
// clip asc) canonical order is what lets the aggregator side consume a
// payload with one plain cursor. Payload buffers come from the handle's
// pool; the consumer recycles them.
func (c *Collective) packRankMsgs(pl *plan, rank int, buf []byte) []mpp.Msg {
	msgs := c.msgScratch[rank][:0]
	for _, a32 := range pl.domsOf[rank] {
		a := int(a32)
		dst := pl.owner[a]
		i := c.dstIdx[dst]
		if i < 0 {
			i = len(msgs)
			msgs = append(msgs, mpp.Msg{Dst: dst, Data: c.getPay()})
			c.dstIdx[dst] = i
		}
		pl.forEachClip(rank, a, func(cl clip) {
			msgs[i].Data = append(msgs[i].Data, buf[cl.bufOff:cl.bufOff+cl.n*pl.bs]...)
		})
	}
	for _, m := range msgs {
		c.dstIdx[m.Dst] = -1
	}
	c.msgScratch[rank] = msgs
	return msgs
}

// assembleDomains builds the owned domains' buffers from the write-phase
// receive list. When the plan has overlapping writes it sorts recv by
// source rank first, so each domain sees its sources applied in rank
// order and overlap resolution (Options.LastWriterWins) matches the
// rank-ordered semantics; disjoint sources land the same bytes in any
// order. Each payload is one source's clips across the owned domains in
// ascending order — packRankMsgs's concatenation — so a single
// per-message cursor consumes it; consumed payloads return to the pool.
func (c *Collective) assembleDomains(pl *plan, owned []int, recv []mpp.RecvMsg, dombufs [][]byte) {
	if pl.overlaps {
		mpp.SortBySrc(recv)
	}
	for _, m := range recv {
		var off int64
		for i, a := range owned {
			dombuf := dombufs[i]
			pl.forEachClip(m.Src, a, func(cl clip) {
				n := cl.n * pl.bs
				copy(dombuf[cl.domOff:cl.domOff+n], m.Data[off:off+n])
				off += n
			})
		}
		c.putPay(m.Data)
	}
}

// packDomainMsgs builds an aggregator's read-phase messages, one per
// rank with clips in any owned domain: the rank's clips copied out of
// the freshly read domain buffers, owned domains in ascending order —
// the order scatterRankMsgs consumes.
func (c *Collective) packDomainMsgs(pl *plan, rank int, owned []int, dombufs [][]byte) []mpp.Msg {
	msgs := c.msgScratch[rank][:0]
	for i, a := range owned {
		dombuf := dombufs[i]
		for _, r32 := range pl.ranksIn[a] {
			r := int(r32)
			j := c.dstIdx[r]
			if j < 0 {
				j = len(msgs)
				msgs = append(msgs, mpp.Msg{Dst: r, Data: c.getPay()})
				c.dstIdx[r] = j
			}
			pl.forEachClip(r, a, func(cl clip) {
				msgs[j].Data = append(msgs[j].Data, dombuf[cl.domOff:cl.domOff+cl.n*pl.bs]...)
			})
		}
	}
	for _, m := range msgs {
		c.dstIdx[m.Dst] = -1
	}
	c.msgScratch[rank] = msgs
	return msgs
}

// scatterRankMsgs delivers the read-phase payloads into rank's buffer,
// consuming each aggregator's payload with a per-message cursor across
// that aggregator's domains in ascending order (scatter targets are
// disjoint buffer ranges, so message order is immaterial). Consumed
// payloads return to the pool.
func (c *Collective) scatterRankMsgs(pl *plan, rank int, recv []mpp.RecvMsg, buf []byte) {
	for _, m := range recv {
		var off int64
		for _, a32 := range pl.domsOf[rank] {
			a := int(a32)
			if pl.owner[a] != m.Src {
				continue
			}
			pl.forEachClip(rank, a, func(cl clip) {
				n := cl.n * pl.bs
				copy(buf[cl.bufOff:cl.bufOff+n], m.Data[off:off+n])
				off += n
			})
		}
		c.putPay(m.Data)
	}
}

// RecordRangeReq builds the VecReq covering records [firstRec,
// firstRec+nRec) of group file `file`, with the records' bytes at
// rank-buffer offset bufOff — the record-list convenience over the
// block-range API. The file's framing must be dense (records tile fs
// blocks with no padding) and the record range must cover whole fs
// blocks, so that ranks' byte ranges remain block-disjoint.
func RecordRangeReq(g *pfs.FileGroup, file int, firstRec, nRec, bufOff int64) (VecReq, error) {
	if file < 0 || file >= g.Len() {
		return VecReq{}, fmt.Errorf("collective: file %d of %d", file, g.Len())
	}
	m := g.File(file).Mapper()
	if !m.Dense() {
		return VecReq{}, fmt.Errorf("collective: file %q frames records with padding; use block-range requests", g.File(file).Name())
	}
	if firstRec < 0 || nRec < 0 || firstRec+nRec > m.NumRecords() {
		return VecReq{}, fmt.Errorf("collective: records [%d,%d) of %d", firstRec, firstRec+nRec, m.NumRecords())
	}
	bs := int64(m.FSBlockSize())
	rs := int64(m.RecordSize())
	if (firstRec*rs)%bs != 0 || (nRec*rs)%bs != 0 {
		return VecReq{}, fmt.Errorf("collective: records [%d,%d) of size %d do not cover whole %d-byte fs blocks",
			firstRec, firstRec+nRec, rs, bs)
	}
	return VecReq{File: file, Vec: blockio.Vec{{
		Block:  firstRec * rs / bs,
		N:      nRec * rs / bs,
		BufOff: bufOff,
	}}}, nil
}
