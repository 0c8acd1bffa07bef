package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"time"

	pario "repro"
	"repro/internal/pfs"
	"repro/internal/stripe"
	"repro/internal/workload"
)

// mixed-service: two lanes share one I/O server over a RAID-5 parity
// array under TunedProfile. Lane "ckpt" is a group of ranks issuing
// back-to-back nonblocking checkpoints of large contiguous blocks; lane
// "query" is a set of client groups issuing nonblocking collective
// reads of small noncontiguous record lists, due on a seeded Poisson
// schedule. Query i goes to client i mod clients, which issues it at
// its due time unless it is still waiting for its previous query, so up
// to clients queries are queued at the server at once. Query shapes
// come from a seeded set larger than the plan cache, so most calls plan
// afresh. One op is one query, timed from its due time.
type mixedSize struct {
	ranks      int   // ranks per group
	clients    int   // query client groups, each with its own collective handle
	ckptBlocks int   // contiguous blocks each ckpt rank writes per checkpoint
	dbRecs     int64 // records in the query file
	shapes     int   // distinct query shapes; more than the plan cache holds
	maxRecs    int   // records per rank per query: 1..maxRecs
	queries    int
	meanGap    time.Duration // mean modeled time between query due times
}

const (
	mixedDrives  = 5 // four data drives plus rotating parity
	mixedRecSize = 4096
	ckptCap      = 150e3 // checkpoint lane bandwidth cap, payload bytes per modeled second
)

func runMixed(seed uint64, toy bool, rec *pario.Recorder) (*rep, error) {
	sz := mixedSize{ranks: 8, clients: 8, ckptBlocks: 4, dbRecs: 2048, shapes: 32, maxRecs: 2, queries: 2500, meanGap: 600 * time.Millisecond}
	if toy {
		sz = mixedSize{ranks: 4, clients: 2, ckptBlocks: 4, dbRecs: 256, shapes: 12, maxRecs: 3, queries: 150, meanGap: 600 * time.Millisecond}
	}
	ph := newPhase(rec)
	r := ph.r
	pf := pario.TunedProfile()
	e := pario.NewEngine()
	disks := make([]*pario.Disk, mixedDrives)
	for i := range disks {
		disks[i] = pario.NewDisk(pario.DiskConfig{Name: fmt.Sprintf("d%d", i), Engine: e, Sched: pf.Sched, MergeQueued: pf.MergeQueued})
	}
	ph.disks = disks
	store, err := stripe.NewParity(disks, true)
	if err != nil {
		return nil, err
	}
	vol := pfs.NewVolume(store)
	m := &pario.Machine{Engine: e, Disks: disks, Volume: vol}
	m.SetProbe(rec)
	group := func(name string, n int64) (*pario.File, *pario.FileGroup, error) {
		f, err := vol.Create(pario.Spec{
			Name: name, Org: pario.OrgGlobalDirect, RecordSize: mixedRecSize, BlockRecords: 1,
			NumRecords: n, Placement: pario.PlaceStriped, StripeUnitFS: 1,
		})
		if err != nil {
			return nil, nil, err
		}
		g, err := vol.OpenGroup(name)
		return f, g, err
	}
	ckFile, ckGroup, err := group("ck", int64(sz.ranks*sz.ckptBlocks))
	if err != nil {
		return nil, err
	}
	dbFile, dbGroup, err := group("db", sz.dbRecs)
	if err != nil {
		return nil, err
	}

	srv := pario.NewIOServer(pario.IOServerConfig{Workers: 2, Policy: pario.IOFairShare})
	srv.SetProbe(rec)
	// The checkpoint lane is capped at ckptCap so the queries' devices
	// are not saturated and their latency stays a property of the mix,
	// not of an unbounded backlog.
	laneC := srv.AddJob(pario.IOJobConfig{Name: "ckpt", BytesPerSec: ckptCap})
	laneQ := srv.AddJob(pario.IOJobConfig{Name: "query"})
	srv.Start(e)
	open := func(g *pario.FileGroup, lane *pario.IOJob) (*pario.Collective, error) {
		opts := pf.Collective
		opts.Service = lane
		return pario.OpenCollective(g, sz.ranks, opts)
	}
	colC, err := open(ckGroup, laneC)
	if err != nil {
		return nil, err
	}
	colQ := make([]*pario.Collective, sz.clients)
	for c := range colQ {
		if colQ[c], err = open(dbGroup, laneQ); err != nil {
			return nil, err
		}
	}

	// The generator's inputs: query shapes (per rank, sorted distinct
	// records), the shape each query uses, and its due time. Every
	// shape reads the same number of records, in lists of 1..maxRecs
	// rotated over the ranks by a seeded offset, so seeds vary where
	// queries read, not how much.
	dbSeed := mix(seed, 5)
	type shape struct {
		recs [][]int64        // per rank
		reqs [][]pario.VecReq // per rank
	}
	shapes := make([]shape, sz.shapes)
	for s := range shapes {
		seen := map[int64]bool{}
		shapes[s].recs = make([][]int64, sz.ranks)
		off := int(mix(seed, 6, uint64(s)) % uint64(sz.maxRecs))
		for rank := range shapes[s].recs {
			n := 1 + (rank+off)%sz.maxRecs
			for j := 0; len(shapes[s].recs[rank]) < n; j++ {
				rec := int64(mix(seed, 7, uint64(s), uint64(rank), uint64(j)) % uint64(sz.dbRecs))
				if !seen[rec] {
					seen[rec] = true
					shapes[s].recs[rank] = append(shapes[s].recs[rank], rec)
				}
			}
			recs := shapes[s].recs[rank]
			sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
			var vec pario.Vec
			for j, rc := range recs {
				vec = append(vec, pario.VecSeg{Block: rc, N: 1, BufOff: int64(j) * mixedRecSize})
			}
			shapes[s].reqs = append(shapes[s].reqs, []pario.VecReq{{File: 0, Vec: vec}})
		}
	}
	// A Poisson process with a given number of arrivals in a window
	// places them as sorted uniform draws; fixing the window to
	// queries × meanGap keeps the run's modeled span, and so the
	// checkpoint lane's work, the same for every seed.
	pick := make([]int, sz.queries)
	due := make([]time.Duration, sz.queries)
	window := float64(sz.queries) * float64(sz.meanGap)
	for i := range pick {
		pick[i] = int(mix(seed, 8, uint64(i)) % uint64(sz.shapes))
		due[i] = time.Duration(float64(mix(seed, 9, uint64(i))>>11) / (1 << 53) * window)
	}
	slices.Sort(due)

	pool := newPayloadPool(seed, sz.ckptBlocks*mixedRecSize)
	ccC := &colCalls{traced: ph.traced()}
	ccQ := make([]*colCalls, sz.clients)
	for c := range ccQ {
		ccQ[c] = &colCalls{traced: ph.traced(), ops: true}
	}
	lat := make([]time.Duration, sz.queries)
	bad := make([]bool, sz.queries)
	sums := make([]uint64, sz.queries*sz.ranks) // digest of each rank's query bytes
	var late time.Duration
	clientsDone := 0
	var queriesDone bool
	var stop bool
	checkpoints := 0
	ckptFailed := 0
	h := newDigest()
	var setupErr error
	var start time.Duration
	var lanes pario.Group
	lanes.Add((sz.clients + 1) * sz.ranks)

	queryClient := func(c int) func(p *pario.Rank) {
		return func(p *pario.Rank) {
			defer lanes.Done(p.Proc)
			rank := p.Rank()
			space := make([]byte, sz.maxRecs*mixedRecSize)
			for i := c; i < sz.queries; i += sz.clients {
				if t := start + due[i]; p.Now() < t {
					p.SleepUntil(t)
				}
				recs := shapes[pick[i]].recs[rank]
				buf := space[:len(recs)*mixedRecSize]
				if rank == 0 {
					late = max(late, p.Now()-(start+due[i]))
					ccQ[c].start(colQ[c])
				}
				hd, err := colQ[c].IReadAll(p, shapes[pick[i]].reqs[rank], buf)
				if err == nil {
					err = hd.Wait(p)
				}
				if rank == 0 {
					lat[i] = p.Now() - (start + due[i])
					ccQ[c].done(colQ[c])
				}
				if err != nil {
					bad[i] = true
				}
				for j, rc := range recs {
					got := buf[j*mixedRecSize : (j+1)*mixedRecSize]
					if workload.CheckRecord(got, dbSeed, rc) != nil {
						bad[i] = true
					}
				}
				sums[i*sz.ranks+rank] = maphash.Bytes(digestSeed, buf)
			}
			if rank == 0 {
				if clientsDone++; clientsDone == sz.clients {
					queriesDone = true
				}
			}
		}
	}
	ckptLane := func(p *pario.Rank) {
		defer lanes.Done(p.Proc)
		rank := p.Rank()
		reqs := []pario.VecReq{{File: 0, Vec: pario.Vec{{Block: int64(rank * sz.ckptBlocks), N: int64(sz.ckptBlocks)}}}}
		buf := make([]byte, sz.ckptBlocks*mixedRecSize)
		for k := 0; ; k++ {
			// Rank 0 decides before the barrier, so every rank sees the
			// same decision after it.
			if rank == 0 {
				stop = queriesDone
			}
			p.Barrier()
			if stop {
				return
			}
			pool.fill(buf, k, rank)
			if rank == 0 {
				ccC.start(colC)
			}
			hd, err := colC.IWriteAll(p, reqs, buf)
			if err == nil {
				err = hd.Wait(p)
			}
			if rank == 0 {
				ccC.done(colC)
				checkpoints++
			}
			if err != nil {
				ckptFailed++
			}
		}
	}

	rgQ := make([]*pario.RankGroup, sz.clients)
	var rgC *pario.RankGroup
	m.Go("driver", func(p *pario.Proc) {
		// Set-up: preload the query file, the generator's reference.
		if setupErr = preload(p, dbFile, pf.Access, dbSeed, sz.dbRecs); setupErr != nil {
			srv.Stop(p)
			return
		}
		ph.begin(p.Now())
		start = p.Now()
		for c := range rgQ {
			rgQ[c] = m.GoRanks(sz.ranks, fmt.Sprintf("query%d", c), queryClient(c))
			pf.ConfigureRanks(rgQ[c])
		}
		rgC = m.GoRanks(sz.ranks, "ckpt", ckptLane)
		pf.ConfigureRanks(rgC)
		lanes.Wait(p)
		ph.end(p.Now())
		srv.Stop(p)
	})
	if err := m.Run(); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("set-up: %w", setupErr)
	}

	// The last checkpoint must be what the file holds.
	img := make([]byte, sz.ranks*sz.ckptBlocks*mixedRecSize)
	if err := ckFile.Set().ReadVec(pario.NewWall(), pario.Vec{{Block: 0, N: int64(sz.ranks * sz.ckptBlocks)}}, img); err != nil {
		ckptFailed++
	}
	want := make([]byte, sz.ckptBlocks*mixedRecSize)
	for rank := 0; rank < sz.ranks && checkpoints > 0; rank++ {
		pool.fill(want, checkpoints-1, rank)
		if !bytes.Equal(img[rank*len(want):(rank+1)*len(want)], want) {
			ckptFailed++
		}
	}
	for _, s := range sums {
		binary.Write(h, binary.LittleEndian, s)
	}
	h.Write(img)

	ckptBytes := int64(checkpoints * sz.ranks * sz.ckptBlocks * mixedRecSize)
	var queryBytes int64
	for i := range pick {
		for _, recs := range shapes[pick[i]].recs {
			queryBytes += int64(len(recs)) * mixedRecSize
		}
	}
	r.written = ckptBytes
	r.bytes = ckptBytes + queryBytes
	r.lat = lat
	r.failed = ckptFailed
	for i, b := range bad {
		if b {
			r.failed++
		}
		hashDur(h, lat[i])
	}
	r.digest = h.Sum64()

	L := r.layer
	for _, rg := range append(rgQ, rgC) {
		msgs, nbytes := rg.Traffic()
		L["mpp.msgs"] += float64(msgs)
		L["mpp.bytes"] += float64(nbytes)
	}
	ccC.report(L, colC)
	for c, cc := range ccQ {
		cc.report(L, colQ[c])
	}
	finishCollective(L, append(ccQ, ccC)...)
	for _, lane := range []*pario.IOJob{laneC, laneQ} {
		st := lane.Stats()
		L["ioserver."+st.Name+".completed"] = float64(st.Completed)
		L["ioserver."+st.Name+".p99_ms"] = float64(st.P99) / 1e6
	}
	L["gen.late_ms_max"] = float64(late) / 1e6
	ph.diskLayer()
	return r, nil
}
