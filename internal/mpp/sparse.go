package mpp

import (
	"cmp"
	"slices"
)

// Sparse personalized exchanges: the same collectives as Alltoallv and
// Exchange.Round, carried as explicit message lists instead of
// rank-indexed slices. A process pays only for the pairs it actually
// communicates with — O(messages) instead of O(group size) per round —
// and payloads transfer by reference: the sender gives up ownership of
// each Msg.Data until the receiver has consumed it, and no copy is made
// anywhere on the path. Charging (per-process link, shared pool,
// Traffic) is computed from the same message and byte totals as the
// dense forms, between the same pair of barriers, so modeled times are
// bit-identical; only the wall-clock cost of the simulation differs.

// Msg is one outgoing payload of a sparse exchange. At most one Msg per
// destination may be passed per round (matching the dense forms, where
// send[dst] is a single payload).
type Msg struct {
	Dst  int
	Data []byte
}

// RecvMsg is one delivered payload: what rank Src sent this process.
// Delivery order follows the engine's deterministic execution order of
// the senders, not rank order; consumers that need rank order (e.g. a
// last-writer-wins merge) must sort by Src.
type RecvMsg struct {
	Src  int
	Data []byte
}

// SortBySrc orders a receive list by source rank in place. The sort is
// stable (messages with equal Src keep their relative order), allocates
// nothing, and makes O(n log n) comparisons: a list can hold one message
// from every rank of the group, in whatever order the engine ran the
// senders. Use it only when consumption order matters, e.g. a
// last-writer-wins merge keyed on rank order.
func SortBySrc(recv []RecvMsg) {
	slices.SortStableFunc(recv, func(a, b RecvMsg) int { return cmp.Compare(a.Src, b.Src) })
}

// ensureSparse lazily allocates the per-rank inboxes.
func (g *Group) ensureSparse() {
	if g.sin == nil {
		g.sin = make([][]RecvMsg, g.size)
	}
}

// takeInbox hands out a recycled (or nil, to be grown by append)
// receive list for a rank whose inbox was just consumed.
func (g *Group) takeInbox() []RecvMsg {
	if n := len(g.inboxPool); n > 0 {
		b := g.inboxPool[n-1]
		g.inboxPool[n-1] = nil
		g.inboxPool = g.inboxPool[:n-1]
		return b
	}
	return nil
}

// RecycleRecv returns a receive list obtained from AlltoallvSparse or
// SparseExchange.Round to the group's pool once its payloads have been
// fully consumed. Optional — an unrecycled list is ordinary garbage —
// but steady-state exchanges that recycle run allocation-free.
func (p *Proc) RecycleRecv(recv []RecvMsg) {
	for i := range recv {
		recv[i] = RecvMsg{}
	}
	p.group.inboxPool = append(p.group.inboxPool, recv[:0])
}

// deliverSparse appends this process's messages to the destination
// inboxes and returns the outgoing totals: all cross-link bytes and
// messages, plus the subset of bytes that crosses the bisection cut.
func (p *Proc) deliverSparse(send []Msg) (out, outPool int64, outMsgs int) {
	g := p.group
	for _, m := range send {
		g.sin[m.Dst] = append(g.sin[m.Dst], RecvMsg{Src: p.rank, Data: m.Data})
		if m.Dst != p.rank {
			out += int64(len(m.Data))
			outMsgs++
			if g.crossCut(p.rank, m.Dst) {
				outPool += int64(len(m.Data))
			}
		}
	}
	return out, outPool, outMsgs
}

// AlltoallvSparse performs one personalized all-to-all exchange from
// message lists: each Msg is delivered to its destination rank, and the
// returned list holds everything the other ranks (and the process
// itself, if it self-sent) addressed here. Payloads move by reference —
// the caller must not modify a sent Data until the receiver is done
// with it, and should hand the returned list back via RecycleRecv when
// consumed. Charged identically to the equivalent Alltoallv. All
// processes of the group must call it together.
func (p *Proc) AlltoallvSparse(send []Msg) []RecvMsg {
	g := p.group
	g.ensureSparse()
	t0 := p.Now()
	out, outPool, outMsgs := p.deliverSparse(send)
	p.chargeLink(outMsgs, out)
	g.trafMsgs += int64(outMsgs)
	g.trafBytes += out
	g.crossVol += outPool
	p.Barrier()
	recv := g.sin[p.rank]
	g.sin[p.rank] = g.takeInbox()
	var in, inPool int64
	inMsgs := 0
	for _, m := range recv {
		if m.Src != p.rank {
			in += int64(len(m.Data))
			inMsgs++
			if g.crossCut(m.Src, p.rank) {
				inPool += int64(len(m.Data))
			}
		}
	}
	p.chargeLink(inMsgs, in)
	p.chargePool(g.crossVol, outPool+inPool)
	p.Barrier()
	g.crossVol -= outPool
	g.exCharged = false
	if g.rec != nil {
		g.rec.Span(g.rankTrk[p.rank], "mpp", "exchange", t0, p.Now(), out+in, 0)
	}
	return recv
}

// SparseExchange is the sparse counterpart of Exchange: one logical
// personalized exchange split into rounds, with per-pair setup time and
// Traffic's message count charged once per communicating pair across
// the handle's lifetime. Unlike Exchange, a handle's footprint is
// proportional to the pairs it touches, not the group size.
type SparseExchange struct {
	p     *Proc
	pairs map[int]uint8 // peer rank -> setup flags (bit 0 sent, bit 1 received)
}

// NewSparseExchange returns this process's handle on a fresh chunked
// sparse exchange. Handles are per-collective-operation, like
// NewExchange.
func (p *Proc) NewSparseExchange() *SparseExchange {
	return &SparseExchange{p: p, pairs: make(map[int]uint8)}
}

// Round moves one round of the chunked exchange — the sparse analogue
// of Exchange.Round, with AlltoallvSparse's delivery and ownership
// contract. All processes of the group must call Round together.
func (ex *SparseExchange) Round(send []Msg) []RecvMsg {
	p := ex.p
	g := p.group
	g.ensureSparse()
	t0 := p.Now()
	var out, outPool int64
	newOut := 0
	for _, m := range send {
		g.sin[m.Dst] = append(g.sin[m.Dst], RecvMsg{Src: p.rank, Data: m.Data})
		if m.Dst != p.rank {
			out += int64(len(m.Data))
			if f := ex.pairs[m.Dst]; f&1 == 0 {
				ex.pairs[m.Dst] = f | 1
				newOut++
			}
			if g.crossCut(p.rank, m.Dst) {
				outPool += int64(len(m.Data))
			}
		}
	}
	p.chargeLink(newOut, out)
	g.trafMsgs += int64(newOut)
	g.trafBytes += out
	g.crossVol += outPool
	p.Barrier()
	recv := g.sin[p.rank]
	g.sin[p.rank] = g.takeInbox()
	var in, inPool int64
	newIn := 0
	for _, m := range recv {
		if m.Src != p.rank {
			in += int64(len(m.Data))
			if f := ex.pairs[m.Src]; f&2 == 0 {
				ex.pairs[m.Src] = f | 2
				newIn++
			}
			if g.crossCut(m.Src, p.rank) {
				inPool += int64(len(m.Data))
			}
		}
	}
	p.chargeLink(newIn, in)
	p.chargePool(g.crossVol, outPool+inPool)
	p.Barrier()
	g.crossVol -= outPool
	g.exCharged = false
	if g.rec != nil {
		g.rec.Span(g.rankTrk[p.rank], "mpp", "round", t0, p.Now(), out+in, 0)
	}
	return recv
}
