package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	pario "repro"
)

// ckpt-replay: the contended iterative checkpoint of the plan-replay
// gate at full scale. Every rank writes the same interleaved
// single-block segments each iteration with fresh payloads through one
// cached collective handle, so after iteration 1 every call replays the
// captured schedule and host-side collective work dominates.
type ckptSize struct {
	ranks, iters int
}

const (
	ckptDrives  = 16
	ckptBS      = 256 // bytes per block
	ckptPerRank = 8   // single-block segments per rank per iteration
	// ckptCompute is the mean modeled compute time between checkpoints;
	// each rank draws its own per iteration, so ranks reach the
	// collective with seeded skew.
	ckptCompute = 200 * time.Microsecond
)

func runCkpt(seed uint64, toy bool, rec *pario.Recorder) (*rep, error) {
	sz := ckptSize{ranks: 1024, iters: 32}
	if toy {
		sz = ckptSize{ranks: 128, iters: 16}
	}
	ph := newPhase(rec)
	r := ph.r
	e := pario.NewEngine()
	geom := pario.Geometry{BlockSize: ckptBS, BlocksPerCyl: 8, Cylinders: sz.ranks * ckptPerRank / ckptDrives / 8}
	disks := make([]*pario.Disk, ckptDrives)
	for i := range disks {
		disks[i] = pario.NewDisk(pario.DiskConfig{Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e})
	}
	ph.disks = disks
	vol, err := pario.NewVolume(disks)
	if err != nil {
		return nil, err
	}
	m := &pario.Machine{Engine: e, Disks: disks, Volume: vol}
	m.SetProbe(rec)
	nBlocks := int64(ckptPerRank * sz.ranks)
	if _, err := vol.Create(pario.Spec{
		Name: "chk", Org: pario.OrgSequential, RecordSize: ckptBS,
		NumRecords: nBlocks, Placement: pario.PlaceStriped, StripeUnitFS: 1,
	}); err != nil {
		return nil, err
	}
	g, err := vol.OpenGroup("chk")
	if err != nil {
		return nil, err
	}
	col, err := pario.OpenCollective(g, sz.ranks, pario.CollectiveOptions{})
	if err != nil {
		return nil, err
	}
	pool := newPayloadPool(seed, ckptPerRank*ckptBS)
	cc := &colCalls{traced: ph.traced(), ops: true}
	var msgs0, bytes0 int64
	var rg *pario.RankGroup
	lat := make([][]time.Duration, sz.ranks)
	failed := make([]int, sz.ranks)
	sums := make([]uint64, sz.ranks)
	rg = m.GoRanks(sz.ranks, "ck", func(p *pario.Rank) {
		rank := p.Rank()
		var vec pario.Vec
		for k := 0; k < ckptPerRank; k++ {
			vec = append(vec, pario.VecSeg{Block: int64(rank + k*sz.ranks), N: 1, BufOff: int64(k) * ckptBS})
		}
		reqs := []pario.VecReq{{File: 0, Vec: vec}}
		buf := make([]byte, ckptPerRank*ckptBS)
		call := func(write bool, it int) {
			measured := it > 0
			if measured && rank == 0 {
				cc.start(col)
			}
			t0 := p.Now()
			var err error
			if write {
				err = col.WriteAll(p, reqs, buf)
			} else {
				err = col.ReadAll(p, reqs, buf)
			}
			if err != nil {
				failed[rank]++
			}
			if !measured {
				return
			}
			lat[rank] = append(lat[rank], p.Now()-t0)
			if rank == 0 {
				cc.done(col)
			}
		}
		for it := 0; it < sz.iters; it++ {
			p.Compute(time.Duration(mix(seed, 1, uint64(it), uint64(rank)) % uint64(2*ckptCompute)))
			pool.fill(buf, it, rank)
			call(true, it)
			if it == 0 {
				// Iteration 1 built and captured the schedule: set-up ends.
				p.Barrier()
				if rank == 0 {
					msgs0, bytes0 = rg.Traffic()
					ph.begin(p.Now())
				}
			}
		}
		// Restart: read the checkpoint back and check it is the last one.
		want := make([]byte, len(buf))
		pool.fill(want, sz.iters-1, rank)
		clear(buf)
		call(false, sz.iters)
		if !bytes.Equal(buf, want) {
			failed[rank]++
		}
		h := newDigest()
		h.Write(buf)
		sums[rank] = h.Sum64()
		p.Barrier()
		if rank == 0 {
			ph.end(p.Now())
		}
	})
	// Contended interconnect: per-message latency, per-rank links and a
	// shared bisection pool the whole exchange squeezes through.
	rg.SetLink(2*time.Microsecond, 50e6)
	rg.SetBisection(200e6)
	if err := m.Run(); err != nil {
		return nil, err
	}

	payload := int64(ckptPerRank * ckptBS * sz.ranks)
	r.written = payload * int64(sz.iters-1)
	r.bytes = r.written + payload
	h := newDigest()
	for rank := range lat {
		r.lat = append(r.lat, lat[rank]...)
		r.failed += failed[rank]
		hashDur(h, time.Duration(sums[rank]))
		for _, d := range lat[rank] {
			hashDur(h, d)
		}
	}
	r.digest = h.Sum64()

	L := r.layer
	msgs, nbytes := rg.Traffic()
	L["mpp.msgs"] = float64(msgs - msgs0)
	L["mpp.bytes"] = float64(nbytes - bytes0)
	cc.report(L, col)
	finishCollective(L, cc)
	ph.diskLayer()
	return r, nil
}

// payloadPool is the seeded byte pool checkpoint payloads are cut from:
// a fresh payload is a copy from a seeded offset, which keeps the
// benchmark's own share of host time small.
type payloadPool struct {
	seed  uint64
	bytes []byte
}

func newPayloadPool(seed uint64, size int) *payloadPool {
	pp := &payloadPool{seed: seed, bytes: make([]byte, 2*size+4096)}
	x := mix(seed, 2)
	for i := 0; i+8 <= len(pp.bytes); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(pp.bytes[i:], x)
	}
	return pp
}

// fill writes the payload of rank's checkpoint k into buf.
func (pp *payloadPool) fill(buf []byte, k, rank int) {
	off := mix(pp.seed, 3, uint64(k), uint64(rank)) % uint64(len(pp.bytes)-len(buf)+1)
	copy(buf, pp.bytes[off:])
}

// splitmix is one step of the SplitMix64 generator.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix derives an independent pseudo-random value from the seed and a
// tuple of coordinates.
func mix(seed uint64, xs ...uint64) uint64 {
	h := splitmix(seed)
	for _, x := range xs {
		h = splitmix(h ^ x)
	}
	return h
}
