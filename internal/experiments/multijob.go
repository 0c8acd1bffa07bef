package experiments

import (
	"fmt"
	"time"

	pario "repro"
	"repro/internal/blockio"
	"repro/internal/collective"
	"repro/internal/device"
	"repro/internal/ioserver"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Multijob is the parameterized shared I/O service: Jobs independent
// 4-rank programs share one single-worker server on 2 default drives.
// Job 0 is a bulk writer that issues its BulkRounds nonblocking
// checkpoints of a BulkBlocks-block file back to back and then waits;
// every other job is a small, latency-sensitive one that starts
// j×Gap in and issues SmallRounds checkpoints of a SmallBlocks-block
// file one at a time at priority SmallPriority. Every file is verified
// after the run.
type Multijob struct {
	Jobs                    int
	BulkBlocks, SmallBlocks int64
	BulkRounds, SmallRounds int
	Gap                     time.Duration
	Policy                  ioserver.Policy
	SmallPriority           int
}

// MultijobQoS is the QoS gate's mix: a bulk job checkpointing 512
// blocks six times against one small job issuing eight 64-block
// checkpoints 10 ms in, under pol with the small lane at victimPrio.
func MultijobQoS(pol ioserver.Policy, victimPrio int) Multijob {
	return Multijob{
		Jobs: 2, BulkBlocks: 512, BulkRounds: 6, SmallBlocks: 64, SmallRounds: 8,
		Gap: 10 * time.Millisecond, Policy: pol, SmallPriority: victimPrio,
	}
}

// Run builds the service, runs the mix under rec (nil: detached),
// verifies every job's file and reports makespan_ns, bulk_p99_ns,
// small_p99_ns (the worst small lane), bulk_completed, small_completed
// and every lane's job<j>/{submitted,completed,bytes,busy_ns,p50_ns,
// p95_ns,p99_ns,max_ns}.
func (mj Multijob) Run(rec *probe.Recorder) (*Result, error) {
	const ranks = 4
	m, err := machine(2, device.Geometry{}, pario.Profile{}, rec)
	if err != nil {
		return nil, err
	}
	srv := ioserver.New(ioserver.Config{Workers: 1, Policy: mj.Policy})
	srv.SetProbe(m.Probe())
	files := make([]*pfs.File, mj.Jobs)
	lanes := make([]*ioserver.Job, mj.Jobs)
	cols := make([]*collective.Collective, mj.Jobs)
	for j := range files {
		blocks, prio := mj.SmallBlocks, mj.SmallPriority
		if j == 0 {
			blocks, prio = mj.BulkBlocks, 0
		}
		name := fmt.Sprintf("job%d", j)
		if files[j], err = m.Volume.Create(pfs.Spec{
			Name: name, Org: pfs.OrgGlobalDirect,
			RecordSize: 4096, BlockRecords: 1, NumRecords: blocks,
			Placement: pfs.PlaceStriped, StripeUnitFS: 1,
		}); err != nil {
			return nil, err
		}
		g, err := m.Volume.OpenGroup(name)
		if err != nil {
			return nil, err
		}
		lanes[j] = srv.AddJob(ioserver.JobConfig{Name: name, Priority: prio})
		if cols[j], err = collective.Open(g, ranks, collective.Options{Service: lanes[j]}); err != nil {
			return nil, err
		}
	}
	srv.Start(m.Engine)
	errs := make([]error, mj.Jobs*ranks)
	var done sim.Group
	done.Add(mj.Jobs * ranks)
	for j := range files {
		blocks, rounds := mj.SmallBlocks, mj.SmallRounds
		if j == 0 {
			blocks, rounds = mj.BulkBlocks, mj.BulkRounds
		}
		m.GoRanks(ranks, fmt.Sprintf("job%d", j), func(r *pario.Rank) {
			defer done.Done(r.Proc)
			r.Compute(time.Duration(j) * mj.Gap)
			per := blocks / ranks
			vec := blockio.Vec{{Block: int64(r.Rank()) * per, N: per}}
			buf := make([]byte, per*4096)
			stampVec(buf, vec, 4096, 0)
			reqs := []collective.VecReq{{File: 0, Vec: vec}}
			errs[j*ranks+r.Rank()] = writeRounds(r, cols[j], reqs, buf, rounds, j > 0)
		})
	}
	var makespan time.Duration
	m.Go("driver", func(p *sim.Proc) {
		done.Wait(p)
		srv.Stop(p)
		makespan = p.Now()
	})
	if err := m.Run(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	metrics := map[string]float64{"makespan_ns": float64(makespan)}
	for j, lane := range lanes {
		st := lane.Stats()
		if st.Submitted != st.Completed {
			return nil, fmt.Errorf("job%d: %d of %d requests completed", j, st.Completed, st.Submitted)
		}
		put(metrics, fmt.Sprintf("job%d", j), map[string]float64{
			"submitted": float64(st.Submitted), "completed": float64(st.Completed),
			"bytes": float64(st.Bytes), "busy_ns": float64(st.Busy),
			"p50_ns": float64(st.P50), "p95_ns": float64(st.P95),
			"p99_ns": float64(st.P99), "max_ns": float64(st.Max),
		})
		if j == 0 {
			metrics["bulk_p99_ns"] = float64(st.P99)
			metrics["bulk_completed"] = float64(st.Completed)
			continue
		}
		metrics["small_p99_ns"] = max(metrics["small_p99_ns"], float64(st.P99))
		metrics["small_completed"] += float64(st.Completed)
	}
	for _, f := range files {
		written := make([]bool, f.Spec().NumRecords)
		for b := range written {
			written[b] = true
		}
		if err := verifyFile(f, m.Disks, written, 0); err != nil {
			return nil, err
		}
	}
	return &Result{Metrics: metrics}, nil
}

// writeRounds issues rounds nonblocking collective writes of buf: one at
// a time when serial, else the whole backlog up front, then the Waits.
func writeRounds(r *pario.Rank, col *collective.Collective, reqs []collective.VecReq, buf []byte, rounds int, serial bool) error {
	var hs []*collective.Handle
	for i := 0; i < rounds; i++ {
		h, err := col.IWriteAll(r, reqs, buf)
		if err != nil {
			return err
		}
		if serial {
			if err := h.Wait(r); err != nil {
				return err
			}
			continue
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if err := h.Wait(r); err != nil {
			return err
		}
	}
	return nil
}

// multijobScenario sweeps the I/O service: J jobs at several arrival
// spacings under each QoS policy. The table reports the worst small-job
// p99 — the number FIFO lets the bulk job ruin and fair-share or strict
// priority bound — plus the bulk job's own p99 and the run's modeled
// makespan (QoS reorders the backlog, it does not starve it).
func multijobScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Multi-job I/O service: QoS policy vs small jobs' tail latency (one server worker; job 0 is a bulk writer)",
		"jobs", "gap", "policy", "small p99", "bulk p99", "makespan")
	metrics := map[string]float64{}
	for _, jobs := range []int{2, 4, 8} {
		for _, gap := range []time.Duration{0, 5 * time.Millisecond} {
			for _, pol := range []ioserver.Policy{ioserver.FIFO, ioserver.FairShare, ioserver.Priority} {
				rec.SetScope(fmt.Sprintf("multijob/%d/%s/%s", jobs, gap, pol))
				res, err := Multijob{
					Jobs: jobs, BulkBlocks: 256, BulkRounds: 4, SmallBlocks: 32, SmallRounds: 4,
					Gap: gap, Policy: pol, SmallPriority: 1,
				}.Run(rec)
				if err != nil {
					return nil, err
				}
				r := res.Metrics
				t.AddRow(jobs, gap, pol, time.Duration(r["small_p99_ns"]), time.Duration(r["bulk_p99_ns"]),
					time.Duration(r["makespan_ns"]))
				put(metrics, fmt.Sprintf("%d/%s/%s", jobs, gap, pol), r)
			}
		}
	}
	t.Note = "small p99 = worst latency percentile across the small jobs' lanes (IOJob.Stats);\ngap staggers job arrivals. fair = start-time fair queuing by served bytes; prio = small jobs at priority 1."
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
