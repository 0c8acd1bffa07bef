// Nonblocking, server-directed collective I/O: IWriteAll/IReadAll are
// the split-collective forms of WriteAll/ReadAll (the MPI_File_iwrite_all
// shape). The plan and exchange phases still run inline — they are
// collective by nature, every rank participates — but the device phase
// is enqueued on an ioserver.Job lane (Options.Service) and the call
// returns a Handle. Ranks overlap their own computation with the
// server's device work and rendezvous in Handle.Wait.
//
// The outcome is data-identical to the blocking call: for writes, the
// exchange and LastWriterWins overlap resolution complete before any
// batch is submitted, so domain buffers are final and the server may
// execute batches in any QoS order (domains are disjoint by
// construction); for reads, the delivery exchange runs inside Wait,
// after every owned domain has arrived from the devices. The
// differential harness's multijob phase enforces this equivalence
// against serialized execution.

package collective

import (
	"errors"
	"fmt"

	"repro/internal/ioserver"
	"repro/internal/mpp"
)

// Handle is an in-flight nonblocking collective. All ranks of the
// group receive the same Handle from one IWriteAll/IReadAll call and
// must each call Wait exactly once (Wait is itself collective); Test
// is local and may be called any number of times before Wait. A
// Collective may have several outstanding Handles, but their Waits
// must be issued in the same order on every rank.
type Handle struct {
	c     *Collective
	write bool
	sd    *schedule

	// Per-rank state, indexed by the owning rank.
	tickets [][]*ioserver.Request
	dombufs [][][]byte
	bufs    [][]byte
	errs    []error
	err     error // the joined errs, built once by rank 0 in Wait
}

// IWriteAll starts a nonblocking collective write: the exchange runs
// now, the aggregators' domain batches are enqueued on Options.Service,
// and the returned Handle completes once the server has written them.
// Requires Options.Service; see WriteAll for the blocking semantics the
// data outcome matches.
func (c *Collective) IWriteAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, true, reqs, buf)
}

// IReadAll starts a nonblocking collective read: the aggregators'
// domain batches are enqueued on Options.Service now, and Wait performs
// the delivery exchange once they have arrived. The rank's buffer is
// filled only after Wait returns.
func (c *Collective) IReadAll(p *mpp.Proc, reqs []VecReq, buf []byte) (*Handle, error) {
	return c.istart(p, false, reqs, buf)
}

// istart is the shared nonblocking prologue: plan, then the
// direction's eager half (writes: exchange + submit; reads: submit).
func (c *Collective) istart(p *mpp.Proc, write bool, reqs []VecReq, buf []byte) (*Handle, error) {
	if p.Size() != c.size {
		return nil, fmt.Errorf("collective: handle opened for %d ranks, called from a %d-rank group", c.size, p.Size())
	}
	if c.opts.Service == nil {
		// Uniform across ranks (shared Options), so every rank returns
		// here before the first barrier and the group stays aligned.
		return nil, fmt.Errorf("collective: nonblocking calls require Options.Service (an ioserver job lane)")
	}
	rank := p.Rank()
	c.reqs[rank], c.bufs[rank], c.errs[rank] = reqs, buf, nil
	p.Barrier()
	if rank == 0 {
		c.sched, c.plErr = c.scheduleFor(p, write)
		if c.plErr == nil {
			// LastStats reports the exchange byte split for nonblocking
			// calls too; the phase-time fields stay zero (the access
			// phase runs on the server's clock, not inside this call).
			c.stats = c.sched.stats
			c.hScratch = &Handle{
				c:       c,
				write:   write,
				sd:      c.sched,
				tickets: make([][]*ioserver.Request, c.size),
				dombufs: make([][][]byte, c.size),
				bufs:    make([][]byte, c.size),
				errs:    make([]error, c.size),
			}
		}
	}
	p.Barrier()
	if c.plErr != nil {
		return nil, c.plErr
	}
	h := c.hScratch
	sd := h.sd
	pl := sd.pl
	h.bufs[rank] = buf

	// Allocate this rank's owned-domain buffers. The buffers outlive the
	// call — the server holds them until the batches complete — so they
	// are fresh per call, never pooled (unlike the blocking path's).
	owned := sd.ownedOf[rank]
	for _, a := range owned {
		lo, hi := pl.domain(a)
		h.dombufs[rank] = append(h.dombufs[rank], make([]byte, (hi-lo)*pl.bs))
	}

	if write {
		// Writes exchange eagerly: once the domains are assembled (with
		// rank-order overlap resolution), the batches are self-contained
		// and the server may run them in any order.
		send := c.packRankMsgs(pl, rank, buf)
		recv := p.AlltoallvSparse(send)
		c.assembleDomains(pl, owned, recv, h.dombufs[rank])
		p.RecycleRecv(recv)
	}
	var aggErrs []error
	for i, a := range owned {
		lo, hi := pl.domain(a)
		bp, err := sd.batchPlan(c, a)
		if err != nil {
			// Unreachable in practice; surfaced through the Handle's
			// error slots so every rank still joins in Wait.
			aggErrs = append(aggErrs, err)
			continue
		}
		bytes := (hi - lo) * pl.bs
		var tk *ioserver.Request
		if write {
			tk = c.opts.Service.SubmitWritePlan(p.Proc, bp, h.dombufs[rank][i], bytes)
		} else {
			tk = c.opts.Service.SubmitReadPlan(p.Proc, bp, h.dombufs[rank][i], bytes)
		}
		h.tickets[rank] = append(h.tickets[rank], tk)
	}
	h.errs[rank] = errors.Join(aggErrs...)
	return h, nil
}

// Test reports whether this rank's server requests have completed —
// local, never parks, the MPI_Test shape. Ranks that aggregate no
// domain report true immediately; global completion is Wait's job.
func (h *Handle) Test(p *mpp.Proc) bool {
	for _, tk := range h.tickets[p.Rank()] {
		if !tk.Done() {
			return false
		}
	}
	return true
}

// Wait completes the collective: every rank parks until its own server
// requests finish, reads additionally run the delivery exchange, and
// all ranks return the same joined error — exactly the error contract
// of the blocking calls.
func (h *Handle) Wait(p *mpp.Proc) error {
	c, pl, rank := h.c, h.sd.pl, p.Rank()
	aggErrs := []error{h.errs[rank]} // istart's submission errors, if any
	for _, tk := range h.tickets[rank] {
		if err := tk.Wait(p.Proc); err != nil {
			aggErrs = append(aggErrs, err)
		}
	}
	h.errs[rank] = errors.Join(aggErrs...)
	if !h.write {
		// Delivery: the freshly read domains ship back to the ranks and
		// scatter into their buffers, as in the blocking read's tail.
		send := c.packDomainMsgs(pl, rank, h.sd.ownedOf[rank], h.dombufs[rank])
		recv := p.AlltoallvSparse(send)
		c.scatterRankMsgs(pl, rank, recv, h.bufs[rank])
		p.RecycleRecv(recv)
	}
	p.Barrier()
	if rank == 0 {
		h.err = joinRankErrs(h.errs)
	}
	// Hold everyone until rank 0 has joined the error slots.
	p.Barrier()
	return h.err
}
