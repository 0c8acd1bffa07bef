// The pipelined two-phase schedule (Options.ChunkBytes > 0): chunked
// aggregator staging buffers that overlap the exchange phase with the
// device-access phase, in the style of ROMIO's collective buffering
// (cb_buffer_size) and PVFS listio chunk pipelining.
//
// The single-shot schedule is a hard barrier: plan → whole exchange →
// whole access, so the interconnect idles while the drives work and the
// drives idle while bytes cross the link. Here each file domain is cut
// into chunk-aligned sub-domains (plan.chunkWindow) and the collective
// runs plan.rounds lockstep exchange rounds (mpp.SparseExchange — per-pair
// setup charged once for the whole collective), with every aggregator's
// device access running in a companion process fed through a depth-1
// sim.Queue:
//
//	write: main   pack(k) → Round(k) ──→ queue ──→ companion: assemble(k) → WriteWindow(k)
//	read:  companion ReadWindow(k) → pack(k) ──→ queue ──→ main: Round(k) → scatter(k)
//
// So while chunk k sits in the drives (writes) the main process is
// already exchanging chunk k+1, and while chunk k is being delivered to
// the ranks (reads) the companion is already reading chunk k+2's data —
// bounded by the double-buffered staging (the queue holds one round,
// the companion works on another). Device access goes through a
// blockio.BatchPlan prepared once per domain, so chunking never
// re-sorts or re-merges the physical pieces.

package collective

import (
	"errors"
	"fmt"

	"repro/internal/blockio"
	"repro/internal/mpp"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runPipelined executes the chunked schedule for one rank, leaving its
// error in c.errs[rank]. Called with pl.rounds > 0.
func (c *Collective) runPipelined(p *mpp.Proc, sd *schedule, write bool, buf []byte) {
	rank := p.Rank()
	pl := sd.pl
	rec, trk, prefix := p.Probe()
	owned := sd.ownedOf[rank]
	ex := p.NewSparseExchange()
	if len(owned) == 0 {
		// Pure compute rank: it only feeds (or drains) the exchange
		// rounds — no device work, no companion process.
		for k := 0; k < pl.rounds; k++ {
			if write {
				send := c.packChunkSparse(pl, rank, k, buf)
				t0 := p.Now()
				p.RecycleRecv(ex.Round(send))
				c.commIv = append(c.commIv, stats.Interval{From: t0, To: p.Now()})
				rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
			} else {
				t0 := p.Now()
				recv := ex.Round(nil)
				c.commIv = append(c.commIv, stats.Interval{From: t0, To: p.Now()})
				rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
				c.scatterChunkSparse(pl, rank, k, recv, buf)
				p.RecycleRecv(recv)
			}
		}
		c.errs[rank] = nil
		return
	}
	// Aggregator rank: exchange spans live on the rank's track, device
	// access spans on a companion "<rank>/io" track — the two stages
	// overlap in time, which is the whole point of the pipeline.
	var ioTrk probe.TrackID
	if rec != nil {
		ioTrk = rec.Track(fmt.Sprintf("%s/%d/io", prefix, rank))
	}

	agg, err := sd.aggState(c, rank, owned)
	if err != nil {
		// Unreachable in practice (the plan's windows are valid by
		// construction), but surface it on every round's schedule anyway:
		// the rank still must participate in the exchanges.
		for k := 0; k < pl.rounds; k++ {
			var send []mpp.Msg
			if write {
				send = c.packChunkSparse(pl, rank, k, buf)
			}
			recv := ex.Round(send)
			if !write {
				c.scatterChunkSparse(pl, rank, k, recv, buf)
			}
			p.RecycleRecv(recv)
		}
		c.errs[rank] = err
		return
	}

	type round struct {
		k    int
		recv []mpp.RecvMsg // write: payloads received for the access stage
		send []mpp.Msg     // read: payloads packed for delivery
		span probe.SpanID  // producing stage's span: the consumer's causal parent
	}
	if write {
		c.errs[rank] = sim.Pipe(p.Proc, "collective-io", 1,
			func(q *sim.Queue) error { // exchange stage, on the rank
				defer q.Close(p.Proc)
				for k := 0; k < pl.rounds; k++ {
					send := c.packChunkSparse(pl, rank, k, buf)
					t0 := p.Now()
					recv := ex.Round(send)
					c.commIv = append(c.commIv, stats.Interval{From: t0, To: p.Now()})
					sp := rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, 0)
					q.Put(p.Proc, round{k: k, recv: recv, span: sp})
				}
				return nil
			},
			func(cp *sim.Proc, q *sim.Queue) error { // access stage
				var errs []error
				for {
					v, ok := q.Get(cp)
					if !ok {
						return errors.Join(errs...)
					}
					r := v.(round)
					t0 := cp.Now()
					if err := agg.writeChunk(cp, r.k, r.recv); err != nil {
						errs = append(errs, err)
					}
					c.ioIv = append(c.ioIv, stats.Interval{From: t0, To: cp.Now()})
					rec.Span(ioTrk, "collective", "chunk.access", t0, cp.Now(), 0, r.span)
					// The companion recycles on the rank's behalf: only
					// handle memory is touched, never engine state.
					p.RecycleRecv(r.recv)
				}
			})
		return
	}
	c.errs[rank] = sim.Pipe(p.Proc, "collective-io", 1,
		func(q *sim.Queue) error { // delivery stage, on the rank
			for k := 0; k < pl.rounds; k++ {
				var send []mpp.Msg
				var parent probe.SpanID
				if v, ok := q.Get(p.Proc); ok {
					r := v.(round)
					send, parent = r.send, r.span
				}
				t0 := p.Now()
				recv := ex.Round(send)
				c.commIv = append(c.commIv, stats.Interval{From: t0, To: p.Now()})
				rec.Span(trk, "collective", "chunk.exchange", t0, p.Now(), 0, parent)
				c.scatterChunkSparse(pl, rank, k, recv, buf)
				p.RecycleRecv(recv)
			}
			return nil
		},
		func(cp *sim.Proc, q *sim.Queue) error { // access stage, reads ahead
			defer q.Close(cp)
			var errs []error
			for k := 0; k < pl.rounds; k++ {
				t0 := cp.Now()
				send, err := agg.readChunk(cp, k)
				if err != nil {
					errs = append(errs, err)
				}
				c.ioIv = append(c.ioIv, stats.Interval{From: t0, To: cp.Now()})
				sp := rec.Span(ioTrk, "collective", "chunk.access", t0, cp.Now(), 0, 0)
				q.Put(cp, round{k: k, send: send, span: sp})
			}
			return errors.Join(errs...)
		})
}

// aggState is one aggregator rank's pipelined device-access state: a
// prepared batch plan per owned domain (mapped, sorted and merged once,
// cut at the chunk boundaries) and two staging buffers per domain — the
// bounded memory the whole feature is named for. msgScr holds the read
// path's two in-flight outgoing message lists: round k's list sits in
// the stage queue while round k+1 is being packed, and slot k%2 is free
// again by round k+2 because the delivery stage is sequential.
type aggState struct {
	c      *Collective
	pl     *plan
	owned  []int
	plans  []*blockio.BatchPlan
	stage  [][2][]byte
	msgScr [2][]mpp.Msg
}

func (c *Collective) newAggState(pl *plan, owned []int) (*aggState, error) {
	s := &aggState{c: c, pl: pl, owned: owned}
	for _, a := range owned {
		lo, hi := pl.domain(a)
		var cuts []int64
		for off := pl.chunkBlocks; off < hi-lo; off += pl.chunkBlocks {
			cuts = append(cuts, off*pl.bs)
		}
		plan, err := c.domainBatchVec(pl, a).Plan(cuts)
		if err != nil {
			return nil, err
		}
		s.plans = append(s.plans, plan)
		n := pl.chunkBlocks * pl.bs
		s.stage = append(s.stage, [2][]byte{make([]byte, n), make([]byte, n)})
	}
	return s, nil
}

// chunkBuf returns the staging buffer for chunk k of owned domain i,
// sized to the chunk. Buffers alternate per round; buffer k%2 is free
// again by round k+2 because the access stage is sequential.
func (s *aggState) chunkBuf(i, k int, lo, hi int64) []byte {
	return s.stage[i][k%2][:(hi-lo)*s.pl.bs]
}

// writeChunk assembles round k's received payloads into the owned
// domains' chunk staging buffers and issues each chunk's window of the
// prepared plan. A single cursor walks each payload across the owned
// domains in ascending order, mirroring packChunkSparse's
// concatenation; when the plan has overlapping writes the receive list
// is sorted by source first, so each domain sees its sources in rank
// order and LastWriterWins overlaps resolve exactly as in the
// single-shot schedule. Assembly is pure compute, so finishing it before
// the first WriteWindow leaves the device schedule bit-identical to
// assembling per domain.
func (s *aggState) writeChunk(ctx sim.Context, k int, recv []mpp.RecvMsg) error {
	pl := s.pl
	if pl.overlaps {
		mpp.SortBySrc(recv)
	}
	for _, m := range recv {
		var off int64
		for i, a := range s.owned {
			lo, hi := pl.chunkWindow(a, k)
			if lo >= hi {
				continue
			}
			buf := s.chunkBuf(i, k, lo, hi)
			pl.forEachClipWin(m.Src, lo, hi, func(cl clip) {
				n := cl.n * pl.bs
				copy(buf[cl.domOff:cl.domOff+n], m.Data[off:off+n])
				off += n
			})
		}
		s.c.putPay(m.Data)
	}
	var errs []error
	for i, a := range s.owned {
		lo, hi := pl.chunkWindow(a, k)
		if lo >= hi {
			continue
		}
		buf := s.chunkBuf(i, k, lo, hi)
		if err := s.plans[i].WriteWindow(ctx, k, buf, (lo-dlo(pl, a))*pl.bs); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// readChunk reads chunk k of every owned domain through the prepared
// plans, then packs the ranks' round-k messages from the fresh staging
// buffers — the read mirror of writeChunk. The pack copies into pooled
// payload buffers (staging is reused two rounds later, so bytes cannot
// ride the message by reference) and runs without parking, after all
// the reads, keeping the handle-shared pack scratch consistent.
func (s *aggState) readChunk(ctx sim.Context, k int) ([]mpp.Msg, error) {
	pl := s.pl
	var errs []error
	for i, a := range s.owned {
		lo, hi := pl.chunkWindow(a, k)
		if lo >= hi {
			continue
		}
		buf := s.chunkBuf(i, k, lo, hi)
		if err := s.plans[i].ReadWindow(ctx, k, buf, (lo-dlo(pl, a))*pl.bs); err != nil {
			errs = append(errs, err)
		}
	}
	c := s.c
	msgs := s.msgScr[k%2][:0]
	for i, a := range s.owned {
		lo, hi := pl.chunkWindow(a, k)
		if lo >= hi {
			continue
		}
		buf := s.chunkBuf(i, k, lo, hi)
		for _, r32 := range pl.ranksIn[a] {
			r := int(r32)
			pl.forEachClipWin(r, lo, hi, func(cl clip) {
				j := c.dstIdx[r]
				if j < 0 {
					j = len(msgs)
					msgs = append(msgs, mpp.Msg{Dst: r, Data: c.getPay()})
					c.dstIdx[r] = j
				}
				msgs[j].Data = append(msgs[j].Data, buf[cl.domOff:cl.domOff+cl.n*pl.bs]...)
			})
		}
	}
	for _, m := range msgs {
		c.dstIdx[m.Dst] = -1
	}
	s.msgScr[k%2] = msgs
	return msgs, errors.Join(errs...)
}

// dlo is domain a's covered-index start.
func dlo(pl *plan, a int) int64 {
	lo, _ := pl.domain(a)
	return lo
}

// packChunkSparse builds rank's round-k write messages: for each
// touched domain in ascending order, the rank's clips against that
// domain's chunk-k window concatenated onto the domain owner's payload
// — the chunked analogue of packRankMsgs, with the same canonical
// (domain asc, clip asc) order. A message is created only when the
// window actually holds a clip, so round-level pair counts (and the
// exchange's per-pair setup charges) match the dense schedule exactly.
func (c *Collective) packChunkSparse(pl *plan, rank, k int, buf []byte) []mpp.Msg {
	msgs := c.msgScratch[rank][:0]
	for _, a32 := range pl.domsOf[rank] {
		a := int(a32)
		lo, hi := pl.chunkWindow(a, k)
		dst := pl.owner[a]
		pl.forEachClipWin(rank, lo, hi, func(cl clip) {
			i := c.dstIdx[dst]
			if i < 0 {
				i = len(msgs)
				msgs = append(msgs, mpp.Msg{Dst: dst, Data: c.getPay()})
				c.dstIdx[dst] = i
			}
			msgs[i].Data = append(msgs[i].Data, buf[cl.bufOff:cl.bufOff+cl.n*pl.bs]...)
		})
	}
	for _, m := range msgs {
		c.dstIdx[m.Dst] = -1
	}
	c.msgScratch[rank] = msgs
	return msgs
}

// scatterChunkSparse delivers round k's read payloads into rank's
// buffer, consuming each aggregator's payload with a per-message cursor
// across that aggregator's domains in ascending order (matching
// readChunk's packing). Consumed payloads return to the pool; the
// caller recycles the receive list itself.
func (c *Collective) scatterChunkSparse(pl *plan, rank, k int, recv []mpp.RecvMsg, buf []byte) {
	for _, m := range recv {
		var off int64
		for _, a32 := range pl.domsOf[rank] {
			a := int(a32)
			if pl.owner[a] != m.Src {
				continue
			}
			lo, hi := pl.chunkWindow(a, k)
			pl.forEachClipWin(rank, lo, hi, func(cl clip) {
				n := cl.n * pl.bs
				copy(buf[cl.bufOff:cl.bufOff+n], m.Data[off:off+n])
				off += n
			})
		}
		c.putPay(m.Data)
	}
}

// domainBatchVec assembles domain a's cross-file batch shape with no
// buffers bound — the input to blockio's prepared, windowed batch plan.
func (c *Collective) domainBatchVec(pl *plan, a int) blockio.BatchVec {
	var batch blockio.BatchVec
	fileIdx := -1
	pl.forEachDomainSpan(a, func(gb, n, domOff int64) {
		for n > 0 {
			file, block, err := c.group.Locate(gb)
			if err != nil {
				// Unreachable: validated segments lie inside the group.
				panic(err)
			}
			seg := c.group.Offset(file+1) - gb // blocks left in this file
			if seg > n {
				seg = n
			}
			if file != fileIdx {
				batch = append(batch, blockio.BatchItem{Set: c.group.File(file).Set()})
				fileIdx = file
			}
			it := &batch[len(batch)-1]
			it.Vec = append(it.Vec, blockio.VecSeg{Block: block, N: seg, BufOff: domOff})
			gb += seg
			domOff += seg * pl.bs
			n -= seg
		}
	})
	return batch
}
