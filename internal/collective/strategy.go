// Route selection: the collective half of the stack's self-tuning.
//
// Two-phase exchange is the right call when the interconnect is cheap
// relative to device requests — the package's founding trade. But
// "Noncontiguous I/O through PVFS" (PAPERS.md) shows the trade invert:
// when each rank's footprint is dense on few devices and the link is
// slow or contended, shipping every byte through aggregators costs more
// than letting ranks access the store directly, vectored or sieved.
// Options.Strategy exposes the choice; StrategyAuto prices the three
// routes per call from the plan, the store's drive parameters
// (blockio.StoreCostModel) and the group's link model
// (mpp.Group.LinkModel), and picks the cheapest.
//
// Whatever the route, the semantics are the plan's: validation and
// cross-rank overlap rejection happen in buildPlan before any route is
// chosen (identical errors on every route), and LastWriterWins is
// honored on independent routes by clipping each rank's write segments
// against every higher rank's footprint — block-disjoint independent
// writes whose final image equals the rank-ordered two-phase assembly.

package collective

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/probe"
	"repro/internal/stats"
)

// route is the access path one collective call executes.
type route int

const (
	routeTwoPhase route = iota // exchange + aggregator batches
	routeVectored              // independent per-rank Set.ReadVec/WriteVec
	routeSieved                // independent per-rank sieved transfers
)

func (r route) String() string {
	switch r {
	case routeVectored:
		return "vectored"
	case routeSieved:
		return "sieved"
	default:
		return "two-phase"
	}
}

// LastRoute reports which route the most recent successfully planned
// blocking call took ("two-phase", "vectored", "sieved") — observability
// for sweeps and tests. Valid under the same rules as LastStats.
func (c *Collective) LastRoute() string { return c.route.String() }

// chooseRoute resolves Options.Strategy for one call. Rank 0 runs it
// after buildPlan succeeds; it is a pure function of the plan, the
// gathered requests and the modeled machine, so the choice is
// deterministic.
func (c *Collective) chooseRoute(p *mpp.Proc, pl *plan, write bool) route {
	switch c.opts.Strategy {
	case blockio.StrategyVectored:
		return routeVectored
	case blockio.StrategySieved:
		return routeSieved
	case blockio.StrategyAuto:
	default:
		// StrategyDefault and StrategyCollective: the historical path.
		return routeTwoPhase
	}
	m := blockio.StoreCostModel(c.group.Store(), c.size)
	m.LinkMsg, m.LinkBytesPerSec, m.BisectionBytesPerSec = p.LinkModel()
	indVec, indSieve, ok := c.independentCosts(m, write)
	if !ok {
		// Some request list is not a valid independent Set descriptor
		// (e.g. one rank reading a block into two buffer slots): only
		// the exchange can serve it.
		return routeTwoPhase
	}
	two := c.twoPhaseCost(m, pl)
	if two <= indVec && two <= indSieve {
		return routeTwoPhase // ties to the historical path
	}
	if indVec <= indSieve {
		return routeVectored
	}
	return routeSieved
}

// independentCosts prices the independent routes: every rank's requests
// mapped onto the store's devices (blockio.SieveSpans yields both the
// vectored gather runs and the sieved covering span per device), request
// and byte costs accumulated per device — concurrent ranks serialize at
// the device queues — and the slowest device bounding the call.
func (c *Collective) independentCosts(m blockio.CostModel, write bool) (vec, sieve time.Duration, ok bool) {
	bs := c.bs
	nd := c.group.Store().Devices()
	vecDev := make([]time.Duration, nd)
	sieveDev := make([]time.Duration, nd)
	for _, rr := range c.reqs {
		for _, q := range rr {
			spans, err := c.group.File(q.File).Set().SieveSpans(q.Vec)
			if err != nil {
				return 0, 0, false
			}
			for _, sp := range spans {
				for _, run := range sp.Runs {
					vecDev[sp.Dev] += m.ReqFixed + m.Xfer(run.N*bs)
				}
				d := m.ReqFixed + m.Xfer(sp.Blocks*bs)
				if write && sp.Useful < sp.Blocks {
					d *= 2 // read-modify-write moves the span twice
				}
				sieveDev[sp.Dev] += d
			}
		}
	}
	for i := 0; i < nd; i++ {
		if vecDev[i] > vec {
			vec = vecDev[i]
		}
		if sieveDev[i] > sieve {
			sieve = sieveDev[i]
		}
	}
	return vec, sieve, true
}

// twoPhaseCost prices the exchange route: the link phase from the plan's
// share table under the group's link model, plus the access phase from
// the union footprint — two-phase coalesces across ranks, so its device
// requests are the union's physically contiguous gather runs (NOT any
// single rank's view, and NOT one request per device: a union that still
// has holes stays fragmented however it is aggregated), plus roughly one
// extra request per nonempty domain for runs the domain split severs. An
// estimate, not a replay — good enough to rank routes.
func (c *Collective) twoPhaseCost(m blockio.CostModel, pl *plan) time.Duration {
	// Exchange: per-rank injected+delivered bytes ride each rank's link
	// in parallel; cross-cut bytes also drain the shared bisection pool.
	var linkMax, msgMax time.Duration
	var cross int64
	for r := 0; r < c.size; r++ {
		var bytes int64
		var msgs int
		for _, a32 := range pl.domsOf[r] {
			if o := pl.owner[int(a32)]; o != r {
				bytes += pl.shares[r][int(a32)]
				msgs++
			}
		}
		cross += bytes
		for a := 0; a < pl.naggs; a++ {
			if pl.owner[a] != r {
				continue
			}
			for _, r32 := range pl.ranksIn[a] {
				if int(r32) != r {
					bytes += pl.shares[int(r32)][a]
					msgs++
				}
			}
		}
		var lt time.Duration
		if m.LinkBytesPerSec > 0 {
			lt = time.Duration(float64(bytes) / m.LinkBytesPerSec * float64(time.Second))
		}
		if lt > linkMax {
			linkMax = lt
		}
		if mt := time.Duration(msgs) * m.LinkMsg; mt > msgMax {
			msgMax = mt
		}
	}
	exch := linkMax + msgMax
	if m.BisectionBytesPerSec > 0 {
		if bt := time.Duration(float64(cross) / m.BisectionBytesPerSec * float64(time.Second)); bt > exch {
			exch = bt
		}
	}
	// Access: split the union footprint's covered spans at file
	// boundaries, map each file's slice to its device gather runs, and
	// charge request + transfer per run, devices in parallel.
	nd := c.group.Store().Devices()
	devCost := make([]time.Duration, nd)
	perFile := make([]blockio.Vec, c.group.Len())
	var off int64
	for _, sp := range pl.covered {
		for gb, n := sp.gb, sp.n; n > 0; {
			f, blk, err := c.group.Locate(gb)
			if err != nil {
				break // covered spans are always locatable
			}
			take := n
			if rem := c.group.Offset(f+1) - gb; take > rem {
				take = rem
			}
			perFile[f] = append(perFile[f], blockio.VecSeg{Block: blk, N: take, BufOff: off})
			off += take * pl.bs
			gb, n = gb+take, n-take
		}
	}
	for f, vec := range perFile {
		if len(vec) == 0 {
			continue
		}
		spans, err := c.group.File(f).Set().SieveSpans(vec)
		if err != nil {
			continue // union descriptors are always valid
		}
		for _, sp := range spans {
			for _, run := range sp.Runs {
				devCost[sp.Dev] += m.ReqFixed + m.Xfer(run.N*pl.bs)
			}
		}
	}
	var access time.Duration
	for _, d := range devCost {
		if d > access {
			access = d
		}
	}
	for a := 0; a < pl.naggs; a++ {
		if lo, hi := pl.domain(a); hi > lo {
			access += m.ReqFixed // domain split severing a run
		}
	}
	return exch + access
}

// runIndependent executes one collective call as independent per-rank
// Set transfers — no exchange, every rank moving its own requests
// straight to the store, sieved or vectored. Concurrent sieved writers
// are safe under the Sets' per-device sieve locks; vectored writers are
// block-disjoint by plan validation (after LastWriterWins clipping).
func (c *Collective) runIndependent(p *mpp.Proc, sd *schedule, write, sieved bool) {
	rank := p.Rank()
	buf := c.bufs[rank]
	reqs := c.reqs[rank]
	if write && c.opts.LastWriterWins {
		reqs = sd.lwwReqs(c, rank)
	}
	rec, _, prefix := p.Probe()
	var ioTrk probe.TrackID
	if rec != nil && len(reqs) > 0 {
		ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
	}
	var errs []error
	t0 := p.Now()
	for _, q := range reqs {
		set := c.group.File(q.File).Set()
		var err error
		switch {
		case sieved && write:
			err = set.WriteVecSieved(p.Proc, q.Vec, buf)
		case sieved:
			err = set.ReadVecSieved(p.Proc, q.Vec, buf)
		case write:
			err = set.WriteVec(p.Proc, q.Vec, buf)
		default:
			err = set.ReadVec(p.Proc, q.Vec, buf)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(reqs) > 0 {
		c.ioIv = append(c.ioIv, stats.Interval{From: t0, To: p.Now()})
		rec.Span(ioTrk, "collective", "independent", t0, p.Now(), 0, 0)
	}
	c.errs[rank] = errors.Join(errs...)
}

// clipLWW rebuilds rank's write requests with every block claimed by a
// higher rank removed: since higher ranks land their own bytes on those
// blocks, the surviving writes are block-disjoint across ranks and the
// final image equals the two-phase path's rank-ordered assembly,
// whatever order the engine schedules the independent writers in.
func (c *Collective) clipLWW(pl *plan, rank int) []VecReq {
	// Merge the higher ranks' footprints into sorted disjoint spans.
	var higher []span
	for r := rank + 1; r < len(pl.segs); r++ {
		for _, sg := range pl.segs[r] {
			higher = append(higher, span{gb: sg.gb, n: sg.n})
		}
	}
	if len(higher) == 0 {
		return c.reqs[rank]
	}
	sortSpans(higher)
	merged := higher[:0]
	for _, sp := range higher {
		if k := len(merged) - 1; k >= 0 && merged[k].gb+merged[k].n >= sp.gb {
			if end := sp.gb + sp.n; end > merged[k].gb+merged[k].n {
				merged[k].n = end - merged[k].gb
			}
			continue
		}
		merged = append(merged, sp)
	}
	// Subtract the merged spans from each of rank's segments, converting
	// the survivors back to file-local descriptors (a segment never
	// crosses a file boundary, so one Locate per piece suffices).
	byFile := make([]blockio.Vec, c.group.Len())
	emit := func(gb, n, bufOff int64) {
		file, blk, err := c.group.Locate(gb)
		if err != nil {
			return // validated segments are always locatable
		}
		byFile[file] = append(byFile[file], blockio.VecSeg{Block: blk, N: n, BufOff: bufOff})
	}
	for _, sg := range pl.segs[rank] {
		lo, end := sg.gb, sg.gb+sg.n
		for _, sp := range merged {
			if sp.gb+sp.n <= lo {
				continue
			}
			if sp.gb >= end {
				break
			}
			if sp.gb > lo {
				emit(lo, sp.gb-lo, sg.bufOff+(lo-sg.gb)*pl.bs)
			}
			if lo = sp.gb + sp.n; lo >= end {
				break
			}
		}
		if lo < end {
			emit(lo, end-lo, sg.bufOff+(lo-sg.gb)*pl.bs)
		}
	}
	var out []VecReq
	for f, vec := range byFile {
		if len(vec) > 0 {
			out = append(out, VecReq{File: f, Vec: vec})
		}
	}
	return out
}

// sortSpans sorts spans by start block (insertion sort: the lists are
// per-call request footprints, already mostly ordered).
func sortSpans(s []span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].gb < s[j-1].gb; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
