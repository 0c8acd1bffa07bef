// The collective plan: the deterministic description of one two-phase
// operation that every rank derives identically from the gathered
// request lists.
//
// All coordinates are global fs blocks — the pfs.FileGroup concatenation
// of the member files' block spaces. The plan holds four things:
//
//   - the per-rank segment lists (each rank's requests flattened into
//     sorted global-block segments),
//
//   - the union access footprint (the merged covered spans, with prefix
//     sums assigning every covered block a dense "covered index"),
//
//   - the file-domain split: the covered index space divided into naggs
//     contiguous domains of ⌈total/naggs⌉ blocks (the final domain is
//     ragged when the footprint does not divide evenly), and
//
//   - the domain→aggregator assignment (owner): by default domain a
//     belongs to rank a (round-robin rank order, the historical PR 3
//     behavior); with Options.Locality the domain is instead assigned to
//     the participating rank owning the largest share of its footprint
//     (ties to the lowest rank), so nearly-aligned access patterns keep
//     most bytes local and only the stragglers cross the interconnect.
//
// Because domains are contiguous in covered-index space, each
// aggregator's device accesses are as sequential as the footprint
// permits, and holes nobody asked for are never touched.

package collective

import (
	"fmt"
	"sort"

	"repro/internal/pfs"
)

// rseg is one rank segment in global coordinates: n blocks starting at
// global block gb, moving the rank-buffer bytes [bufOff, bufOff+n×bs).
type rseg struct {
	gb     int64
	n      int64
	bufOff int64
}

// span is a covered interval of the union footprint.
type span struct{ gb, n int64 }

// clip is the intersection of one rank segment with one aggregator
// domain: n blocks moving rank-buffer bytes at bufOff to/from
// domain-buffer bytes at domOff. Clips enumerate in the same canonical
// order on the rank and the aggregator side, which is what lets the
// exchange payloads be plain concatenations.
type clip struct {
	n      int64
	bufOff int64
	domOff int64
}

// plan is the shared description of one collective operation.
type plan struct {
	bs        int64
	naggs     int
	segs      [][]rseg  // per rank, sorted by gb
	covered   []span    // merged union footprint, sorted by gb
	cbase     []int64   // covered-index of covered[i].gb
	total     int64     // total covered blocks
	domBlocks int64     // blocks per domain (last one ragged)
	owner     []int     // domain index → aggregator rank
	shares    [][]int64 // shares[rank][domain]: exchange payload bytes
	// overlaps records that some block is requested by more than one
	// segment. Only then does the order in which an aggregator applies
	// its received payloads matter (LastWriterWins writes resolve in
	// rank order), so only then does write assembly sort its receive
	// list by source.
	overlaps bool
	// Chunking (Options.ChunkBytes): each domain is cut into
	// chunkBlocks-block chunks (the final chunk of a domain ragged), and
	// the collective runs as `rounds` pipelined exchange/access rounds —
	// round k moving chunk k of every domain at once. Zero chunkBlocks /
	// rounds selects the unchunked single-shot path.
	chunkBlocks int64
	rounds      int
	// Sparse participation indexes, derived from shares: domsOf[r] lists
	// the domains rank r's footprint touches and ranksIn[a] the ranks
	// touching domain a (both ascending). The exchange and staging loops
	// iterate these instead of scanning all ranks × all domains, so a
	// round's cost follows the communication pattern, not the group size.
	domsOf  [][]int32
	ranksIn [][]int32
	// Per-rank covered-index ranges of segs (cstart[r][i] = covered
	// index of segs[r][i].gb, cend its end) and the running maximum of
	// cend — precomputed once so window clipping can binary-search its
	// first candidate segment instead of rescanning the whole list per
	// chunk. maxEnd is monotone by construction even when a rank's read
	// segments overlap (cend alone need not be).
	cstart [][]int64
	cend   [][]int64
	maxEnd [][]int64
}

// buildPlan validates every rank's requests and computes the footprint,
// domain split and domain→aggregator assignment. write additionally
// rejects cross-rank overlaps, whose store order would be ambiguous —
// unless opts.LastWriterWins selects MPI-IO rank-order semantics.
func buildPlan(group *pfs.FileGroup, reqs [][]VecReq, bufs [][]byte, naggs int, write bool, opts Options) (*plan, error) {
	bs := int64(group.Store().BlockSize())
	pl := &plan{bs: bs, naggs: naggs, segs: make([][]rseg, len(reqs))}
	type owned struct {
		rseg
		rank int
	}
	var all []owned
	for r, rr := range reqs {
		bufLen := int64(len(bufs[r]))
		var segs []rseg
		for qi, q := range rr {
			if q.File < 0 || q.File >= group.Len() {
				return nil, fmt.Errorf("collective: rank %d request %d: file %d of %d", r, qi, q.File, group.Len())
			}
			fileBlocks := group.File(q.File).Mapper().TotalFSBlocks()
			off := group.Offset(q.File)
			for si, sg := range q.Vec {
				if sg.N < 0 || sg.Block < 0 || sg.Block+sg.N > fileBlocks {
					return nil, fmt.Errorf("collective: rank %d request %d segment %d: blocks [%d,%d) of %d-block file",
						r, qi, si, sg.Block, sg.Block+sg.N, fileBlocks)
				}
				if sg.N == 0 {
					continue
				}
				if sg.BufOff < 0 || sg.BufOff%bs != 0 {
					return nil, fmt.Errorf("collective: rank %d request %d segment %d: buffer offset %d not aligned to %d-byte blocks",
						r, qi, si, sg.BufOff, bs)
				}
				if sg.BufOff+sg.N*bs > bufLen {
					return nil, fmt.Errorf("collective: rank %d request %d segment %d: buffer bytes [%d,%d) exceed %d-byte buffer",
						r, qi, si, sg.BufOff, sg.BufOff+sg.N*bs, bufLen)
				}
				segs = append(segs, rseg{gb: off + sg.Block, n: sg.N, bufOff: sg.BufOff})
			}
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].gb < segs[j].gb })
		if write {
			// A rank naming a block twice in one write is ambiguous; a
			// read may fetch one block into several buffer slots.
			for i := 1; i < len(segs); i++ {
				if segs[i-1].gb+segs[i-1].n > segs[i].gb {
					return nil, fmt.Errorf("collective: rank %d requests overlap at global block %d", r, segs[i].gb)
				}
			}
		}
		byBuf := append([]rseg(nil), segs...)
		sort.Slice(byBuf, func(i, j int) bool { return byBuf[i].bufOff < byBuf[j].bufOff })
		for i := 1; i < len(byBuf); i++ {
			if byBuf[i-1].bufOff+byBuf[i-1].n*bs > byBuf[i].bufOff {
				return nil, fmt.Errorf("collective: rank %d requests overlap in the buffer at offset %d", r, byBuf[i].bufOff)
			}
		}
		pl.segs[r] = segs
		for _, sg := range segs {
			all = append(all, owned{rseg: sg, rank: r})
		}
	}

	sort.Slice(all, func(i, j int) bool { return all[i].gb < all[j].gb })
	for i, sg := range all {
		if i > 0 && all[i-1].gb+all[i-1].n > sg.gb {
			if write && !opts.LastWriterWins {
				return nil, fmt.Errorf("collective: ranks %d and %d write overlapping blocks at global block %d",
					all[i-1].rank, sg.rank, sg.gb)
			}
			// Reads may share blocks, and LastWriterWins resolves write
			// overlaps in rank order; the union merge below absorbs both.
			pl.overlaps = true
		}
		if k := len(pl.covered) - 1; k >= 0 && pl.covered[k].gb+pl.covered[k].n >= sg.gb {
			if end := sg.gb + sg.n; end > pl.covered[k].gb+pl.covered[k].n {
				pl.covered[k].n = end - pl.covered[k].gb
			}
			continue
		}
		pl.covered = append(pl.covered, span{gb: sg.gb, n: sg.n})
	}
	pl.cbase = make([]int64, len(pl.covered))
	for i, sp := range pl.covered {
		pl.cbase[i] = pl.total
		pl.total += sp.n
	}
	if pl.total > 0 {
		pl.domBlocks = (pl.total + int64(naggs) - 1) / int64(naggs)
	}
	pl.cstart = make([][]int64, len(reqs))
	pl.cend = make([][]int64, len(reqs))
	pl.maxEnd = make([][]int64, len(reqs))
	for r, segs := range pl.segs {
		pl.cstart[r] = make([]int64, len(segs))
		pl.cend[r] = make([]int64, len(segs))
		pl.maxEnd[r] = make([]int64, len(segs))
		var max int64
		for i, sg := range segs {
			ci := pl.coveredIndex(sg.gb)
			pl.cstart[r][i] = ci
			pl.cend[r][i] = ci + sg.n
			if ci+sg.n > max {
				max = ci + sg.n
			}
			pl.maxEnd[r][i] = max
		}
	}
	// One pass over all segments fills the rank×domain share table
	// (equal to clipBytes at every cell) — it drives the locality
	// election, the exchange stats, and payload-buffer sizing without
	// rescanning segment lists per domain.
	pl.shares = make([][]int64, len(reqs))
	for r := range pl.shares {
		pl.shares[r] = make([]int64, naggs)
		if pl.domBlocks == 0 {
			continue
		}
		for _, sg := range pl.segs[r] {
			ci := pl.coveredIndex(sg.gb)
			for a := ci / pl.domBlocks; a <= (ci+sg.n-1)/pl.domBlocks; a++ {
				lo, hi := a*pl.domBlocks, (a+1)*pl.domBlocks
				if lo < ci {
					lo = ci
				}
				if hi > ci+sg.n {
					hi = ci + sg.n
				}
				pl.shares[r][a] += (hi - lo) * pl.bs
			}
		}
	}
	pl.domsOf = make([][]int32, len(reqs))
	pl.ranksIn = make([][]int32, naggs)
	for r := range pl.shares {
		for a, b := range pl.shares[r] {
			if b > 0 {
				pl.domsOf[r] = append(pl.domsOf[r], int32(a))
				pl.ranksIn[a] = append(pl.ranksIn[a], int32(r))
			}
		}
	}
	if opts.ChunkBytes > 0 && pl.total > 0 {
		// A chunk is ChunkBytes worth of whole blocks — at least one (a
		// sub-block ChunkBytes degenerates to single-block chunks) and at
		// most a whole domain (a chunk larger than the domain degenerates
		// to one round, the pipelined code path with nothing to overlap).
		cb := opts.ChunkBytes / bs
		if cb < 1 {
			cb = 1
		}
		if cb > pl.domBlocks {
			cb = pl.domBlocks
		}
		pl.chunkBlocks = cb
		pl.rounds = int((pl.domBlocks + cb - 1) / cb)
	}
	pl.owner = make([]int, naggs)
	for a := range pl.owner {
		pl.owner[a] = a // round-robin rank order, the bit-identical default
	}
	if opts.Locality {
		for a := range pl.owner {
			// The rank with the largest byte share of the domain
			// aggregates it; strict > keeps the lowest rank on ties. A
			// nonempty domain always has a participating rank (domains
			// tile the covered footprint, and every covered block was
			// requested by someone), so best stays the round-robin rank
			// only for empty (past-the-footprint) domains.
			bestBytes := int64(0)
			for r := range reqs {
				if b := pl.shares[r][a]; b > bestBytes {
					pl.owner[a], bestBytes = r, b
				}
			}
		}
	}
	return pl, nil
}

// exchangeStats totals the exchange-phase payload bytes by destination:
// a rank's pieces for a domain it aggregates itself are a local copy
// (self-message, free under both link models); everything else crosses
// the interconnect.
func (pl *plan) exchangeStats(nranks int) (st ExchangeStats) {
	for a := 0; a < pl.naggs; a++ {
		for r := 0; r < nranks; r++ {
			b := pl.shares[r][a]
			if r == pl.owner[a] {
				st.BytesLocal += b
			} else {
				st.BytesMoved += b
			}
		}
	}
	return st
}

// coveredIndex maps a covered global block to its dense covered index.
// gb must lie in the footprint (every validated segment does).
func (pl *plan) coveredIndex(gb int64) int64 {
	i := sort.Search(len(pl.covered), func(i int) bool { return pl.covered[i].gb+pl.covered[i].n > gb })
	return pl.cbase[i] + gb - pl.covered[i].gb
}

// domain reports aggregator a's covered-index range [lo, hi); empty when
// the footprint runs out before domain a.
func (pl *plan) domain(a int) (lo, hi int64) {
	lo = int64(a) * pl.domBlocks
	hi = lo + pl.domBlocks
	if lo > pl.total {
		lo = pl.total
	}
	if hi > pl.total {
		hi = pl.total
	}
	return lo, hi
}

// forEachClip enumerates rank's segments clipped to aggregator agg's
// domain, in ascending global-block order — the canonical payload order
// of the exchange phase.
func (pl *plan) forEachClip(rank, agg int, fn func(c clip)) {
	lo, hi := pl.domain(agg)
	pl.forEachClipWin(rank, lo, hi, fn)
}

// forEachClipWin is forEachClip over an arbitrary covered-index window
// [lo, hi) — a whole domain, or one chunk of one (chunkWindow). domOff
// is relative to the window start, so chunk clips address chunk-sized
// staging buffers directly. A segment is always contained in one
// covered span, so its covered indexes are consecutive and each segment
// yields at most one clip per window. The precomputed covered ranges
// bound the scan to the intersecting segments (O(log S + clips)), which
// is what keeps the pipelined path affordable when tiny chunks make the
// window count large.
func (pl *plan) forEachClipWin(rank int, lo, hi int64, fn func(c clip)) {
	if lo >= hi {
		return
	}
	segs := pl.segs[rank]
	maxEnd := pl.maxEnd[rank]
	// First segment that can reach the window: maxEnd is monotone, so
	// everything before this index ends at or before lo.
	i := sort.Search(len(segs), func(i int) bool { return maxEnd[i] > lo })
	for ; i < len(segs); i++ {
		cLo, cHi := pl.cstart[rank][i], pl.cend[rank][i]
		if cLo >= hi {
			break // cstart ascends: nothing later intersects either
		}
		ci := cLo
		if cLo < lo {
			cLo = lo
		}
		if cHi > hi {
			cHi = hi
		}
		if cLo >= cHi {
			continue
		}
		fn(clip{
			n:      cHi - cLo,
			bufOff: segs[i].bufOff + (cLo-ci)*pl.bs,
			domOff: (cLo - lo) * pl.bs,
		})
	}
}

// chunkWindow reports chunk c of aggregator a's domain as a
// covered-index range; empty once the domain runs out (ragged domains
// have fewer nonempty chunks than plan.rounds).
func (pl *plan) chunkWindow(a, c int) (lo, hi int64) {
	dlo, dhi := pl.domain(a)
	lo = dlo + int64(c)*pl.chunkBlocks
	hi = lo + pl.chunkBlocks
	if lo > dhi {
		lo = dhi
	}
	if hi > dhi {
		hi = dhi
	}
	return lo, hi
}

// clipBytes reports the exchange payload size between rank and agg by
// enumerating clips — the reference implementation of shares[rank][agg],
// kept for the fuzz target's independent cross-check.
func (pl *plan) clipBytes(rank, agg int) int64 {
	var n int64
	pl.forEachClip(rank, agg, func(c clip) { n += c.n })
	return n * pl.bs
}

// forEachDomainSpan enumerates aggregator a's domain as (global block,
// length, domain-buffer offset) pieces — the covered spans clipped to
// the domain, ascending.
func (pl *plan) forEachDomainSpan(a int, fn func(gb, n, domOff int64)) {
	lo, hi := pl.domain(a)
	pl.forEachSpanWin(lo, hi, fn)
}

// forEachSpanWin is forEachDomainSpan over an arbitrary covered-index
// window, with offsets relative to the window start.
func (pl *plan) forEachSpanWin(lo, hi int64, fn func(gb, n, domOff int64)) {
	if lo >= hi {
		return
	}
	i := sort.Search(len(pl.covered), func(i int) bool { return pl.cbase[i]+pl.covered[i].n > lo })
	for ; i < len(pl.covered) && pl.cbase[i] < hi; i++ {
		sp, cb := pl.covered[i], pl.cbase[i]
		cLo, cHi := cb, cb+sp.n
		if cLo < lo {
			cLo = lo
		}
		if cHi > hi {
			cHi = hi
		}
		if cLo >= cHi {
			continue
		}
		fn(sp.gb+(cLo-cb), cHi-cLo, (cLo-lo)*pl.bs)
	}
}
