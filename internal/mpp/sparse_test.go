package mpp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// exchangeResult captures everything a scenario run observes, so dense
// and sparse paths can be compared field by field.
type exchangeResult struct {
	now       time.Duration
	msgs      int64
	bytes     int64
	checksums []uint64
	wall      time.Duration
	allocs    uint64
}

// runChunkedScenario drives a pinned chunked-exchange scenario — every
// rank ships a payload to fanout neighbors each round under both link
// models — through either the dense (pre-sparse) Exchange path or the
// sparse one, and reports modeled time, traffic, per-rank payload
// checksums, and the wall-clock/allocation cost of simulating it.
func runChunkedScenario(ranks, rounds, fanout, payload int, sparse bool) exchangeResult {
	eng := sim.NewEngine()
	checksums := make([]uint64, ranks)
	g, _ := Run(eng, ranks, "w", func(p *Proc) {
		r := p.Rank()
		buf := make([]byte, payload)
		for i := range buf {
			buf[i] = byte(r + i)
		}
		var sum uint64
		digest := func(src int, data []byte) {
			for _, b := range data {
				sum = sum*31 + uint64(b)
			}
			sum = sum*31 + uint64(src)
		}
		if sparse {
			ex := p.NewSparseExchange()
			send := make([]Msg, 0, fanout)
			for round := 0; round < rounds; round++ {
				send = send[:0]
				for j := 1; j <= fanout; j++ {
					send = append(send, Msg{Dst: (r + j) % ranks, Data: buf})
				}
				recv := ex.Round(send)
				SortBySrc(recv)
				for _, m := range recv {
					digest(m.Src, m.Data)
				}
				p.RecycleRecv(recv)
			}
		} else {
			ex := p.NewExchange()
			send := make([][]byte, ranks)
			for round := 0; round < rounds; round++ {
				for j := 1; j <= fanout; j++ {
					send[(r+j)%ranks] = buf
				}
				recv := ex.Round(send)
				for j := 1; j <= fanout; j++ {
					send[(r+j)%ranks] = nil
				}
				for src, data := range recv {
					if data != nil {
						digest(src, data)
					}
				}
			}
		}
		checksums[r] = sum
	})
	g.SetLink(2*time.Microsecond, 100e6)
	g.SetBisection(500e6)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := eng.Run(); err != nil {
		panic(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	msgs, bytes := g.Traffic()
	return exchangeResult{
		now:       eng.Now(),
		msgs:      msgs,
		bytes:     bytes,
		checksums: checksums,
		wall:      wall,
		allocs:    after.Mallocs - before.Mallocs,
	}
}

// TestSparseMatchesDenseChunked checks the sparse exchange's core
// guarantee: same modeled time, same Traffic, same delivered payloads
// as the dense path it replaces.
func TestSparseMatchesDenseChunked(t *testing.T) {
	dense := runChunkedScenario(16, 4, 3, 96, false)
	sp := runChunkedScenario(16, 4, 3, 96, true)
	if dense.now != sp.now {
		t.Fatalf("modeled time differs: dense %v, sparse %v", dense.now, sp.now)
	}
	if dense.msgs != sp.msgs || dense.bytes != sp.bytes {
		t.Fatalf("traffic differs: dense (%d, %d), sparse (%d, %d)",
			dense.msgs, dense.bytes, sp.msgs, sp.bytes)
	}
	for r := range dense.checksums {
		if dense.checksums[r] != sp.checksums[r] {
			t.Fatalf("rank %d received different payloads: dense %x, sparse %x",
				r, dense.checksums[r], sp.checksums[r])
		}
	}
}

// TestAlltoallvSparseMatchesDense compares the single-shot forms,
// including self-sends.
func TestAlltoallvSparseMatchesDense(t *testing.T) {
	const ranks = 8
	run := func(sparse bool) (time.Duration, int64, int64, []uint64) {
		eng := sim.NewEngine()
		sums := make([]uint64, ranks)
		g, _ := Run(eng, ranks, "w", func(p *Proc) {
			r := p.Rank()
			pl := make([]byte, 16+4*r)
			for i := range pl {
				pl[i] = byte(r ^ i)
			}
			digest := func(src int, data []byte) {
				for _, b := range data {
					sums[r] = sums[r]*31 + uint64(b)
				}
				sums[r] = sums[r]*31 + uint64(src)
			}
			// Send to self, next, and next-next ranks.
			if sparse {
				recv := p.AlltoallvSparse([]Msg{
					{Dst: r, Data: pl},
					{Dst: (r + 1) % ranks, Data: pl},
					{Dst: (r + 2) % ranks, Data: pl},
				})
				SortBySrc(recv)
				for _, m := range recv {
					digest(m.Src, m.Data)
				}
				p.RecycleRecv(recv)
			} else {
				send := make([][]byte, ranks)
				send[r] = pl
				send[(r+1)%ranks] = pl
				send[(r+2)%ranks] = pl
				recv := p.Alltoallv(send)
				for src, data := range recv {
					if data != nil {
						digest(src, data)
					}
				}
			}
		})
		g.SetLink(time.Microsecond, 50e6)
		g.SetBisection(200e6)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		msgs, bytes := g.Traffic()
		return eng.Now(), msgs, bytes, sums
	}
	dNow, dMsgs, dBytes, dSums := run(false)
	sNow, sMsgs, sBytes, sSums := run(true)
	if dNow != sNow || dMsgs != sMsgs || dBytes != sBytes {
		t.Fatalf("dense (%v, %d, %d) != sparse (%v, %d, %d)",
			dNow, dMsgs, dBytes, sNow, sMsgs, sBytes)
	}
	for r := range dSums {
		if dSums[r] != sSums[r] {
			t.Fatalf("rank %d payloads differ", r)
		}
	}
}

// TestRecycleRecvReused checks the inbox pool actually recycles: after
// warm-up rounds, sparse rounds should allocate almost nothing.
func TestRecycleRecvReused(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is meaningless under -race")
	}
	warm := runChunkedScenario(64, 2, 4, 64, true)
	long := runChunkedScenario(64, 34, 4, 64, true)
	perRound := float64(long.allocs-warm.allocs) / 32
	// Each extra round involves 64 ranks; without recycling, receive
	// lists alone would cost ≥ 64 allocations a round.
	if perRound > 32 {
		t.Fatalf("sparse steady state allocates %.1f objects per round; inbox recycling broken", perRound)
	}
}

// TestTopologySameSideSkipsPool: with a topology whose traffic never
// crosses the cut, the bisection pool must charge nothing.
func TestTopologySameSideSkipsPool(t *testing.T) {
	run := func(topo []int) time.Duration {
		eng := sim.NewEngine()
		g, _ := Run(eng, 4, "w", func(p *Proc) {
			// Ranks 0<->1 exchange within side 0; ranks 2 and 3 idle.
			var send []Msg
			switch p.Rank() {
			case 0:
				send = []Msg{{Dst: 1, Data: make([]byte, 1000)}}
			case 1:
				send = []Msg{{Dst: 0, Data: make([]byte, 1000)}}
			}
			p.RecycleRecv(p.AlltoallvSparse(send))
		})
		g.SetBisection(1e6) // 1 MB/s: 1000 B cost 1 ms if pooled
		g.SetTopology(topo)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	base := run(nil)
	if base != 2*time.Millisecond {
		t.Fatalf("no-topology pool charge = %v, want 2ms (2000 B at 1 MB/s)", base)
	}
	sameSide := run([]int{0, 0, 1, 1})
	if sameSide != 0 {
		t.Fatalf("same-side exchange charged the pool: %v, want 0", sameSide)
	}
}

// TestTopologyReleasesPoolEarly: with a topology, processes that moved
// no cross-cut bytes skip the pool wait, and participants wait only for
// the shared reservation to drain instead of re-paying the full volume
// from their own (link-delayed) arrival.
func TestTopologyReleasesPoolEarly(t *testing.T) {
	run := func(topo []int) time.Duration {
		eng := sim.NewEngine()
		g, _ := Run(eng, 4, "w", func(p *Proc) {
			var send []Msg
			if p.Rank() == 0 {
				// 0 -> 2 crosses the cut.
				send = []Msg{{Dst: 2, Data: make([]byte, 1000)}}
			}
			p.RecycleRecv(p.AlltoallvSparse(send))
		})
		g.SetLink(0, 1e6)   // injecting/receiving 1000 B costs 1 ms
		g.SetBisection(1e6) // draining 1000 B through the pool costs 1 ms
		g.SetTopology(topo)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	// Pre-PR accounting: rank 0's injection delays the entry barrier to
	// 1 ms; rank 2 then pays its 1 ms receive charge and re-pays the
	// full pool drain from its own 2 ms arrival -> ends at 3 ms.
	if got := run(nil); got != 3*time.Millisecond {
		t.Fatalf("no-topology end = %v, want 3ms", got)
	}
	// With the cut [0,0|1,1]: ranks 1 and 3 moved nothing across it and
	// skip the pool; the reservation drains at 2 ms (1 ms barrier + 1 ms
	// drain), so rank 2, arriving at 2 ms after its receive charge, is
	// not held further -> ends at 2 ms.
	if got := run([]int{0, 0, 1, 1}); got != 2*time.Millisecond {
		t.Fatalf("topology end = %v, want 2ms (early pool release)", got)
	}
}

// TestTopologyLengthMismatchPanics pins the misuse guard.
func TestTopologyLengthMismatchPanics(t *testing.T) {
	eng := sim.NewEngine()
	g, _ := Run(eng, 4, "w", func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetTopology with wrong length did not panic")
		}
	}()
	g.SetTopology([]int{0, 1})
}

// TestEngineScaleWin is the PR's enforced win: on a pinned 1024-rank
// chunked exchange, the sparse path must simulate the identical modeled
// scenario with at least 4x fewer allocations per round and at least 3x
// less wall-clock time than the dense pre-PR path.
func TestEngineScaleWin(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock and allocation ratios are distorted under -race")
	}
	if testing.Short() {
		t.Skip("1024-rank comparison skipped in -short mode")
	}
	const (
		ranks   = 1024
		rounds  = 20
		fanout  = 3
		payload = 64
	)
	dense := runChunkedScenario(ranks, rounds, fanout, payload, false)
	sp := runChunkedScenario(ranks, rounds, fanout, payload, true)
	if dense.now != sp.now {
		t.Fatalf("modeled time differs: dense %v, sparse %v", dense.now, sp.now)
	}
	if dense.msgs != sp.msgs || dense.bytes != sp.bytes {
		t.Fatalf("traffic differs: dense (%d, %d), sparse (%d, %d)",
			dense.msgs, dense.bytes, sp.msgs, sp.bytes)
	}
	for r := range dense.checksums {
		if dense.checksums[r] != sp.checksums[r] {
			t.Fatalf("rank %d received different payloads", r)
		}
	}
	denseAllocs := float64(dense.allocs) / rounds
	sparseAllocs := float64(sp.allocs) / rounds
	t.Logf("dense: %v wall, %.0f allocs/round; sparse: %v wall, %.0f allocs/round",
		dense.wall, denseAllocs, sp.wall, sparseAllocs)
	if denseAllocs < 4*sparseAllocs {
		t.Errorf("allocation win %.2fx < 4x (dense %.0f, sparse %.0f per round)",
			denseAllocs/sparseAllocs, denseAllocs, sparseAllocs)
	}
	if dense.wall < 3*sp.wall {
		t.Errorf("wall-clock win %.2fx < 3x (dense %v, sparse %v)",
			float64(dense.wall)/float64(sp.wall), dense.wall, sp.wall)
	}
}

// TestSortBySrc checks the receive-list sort on the orders a 1024-rank
// exchange can deliver — reversed and shuffled — plus repeated sources,
// whose relative order the sort must keep (it is stable), and that it
// allocates nothing.
func TestSortBySrc(t *testing.T) {
	const n = 1024
	mk := func(srcs []int) []RecvMsg {
		recv := make([]RecvMsg, len(srcs))
		for i, s := range srcs {
			recv[i] = RecvMsg{Src: s, Data: []byte{byte(i), byte(i >> 8)}}
		}
		return recv
	}
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	shuffled := make([]int, n)
	for i := range shuffled {
		shuffled[i] = (i * 389) % n // 389 is coprime to 1024: a permutation
	}
	dups := make([]int, n)
	for i := range dups {
		dups[i] = (i * 7) % 13
	}
	for _, tc := range []struct {
		name string
		srcs []int
	}{
		{"empty", nil},
		{"reversed", reversed},
		{"shuffled", shuffled},
		{"duplicates", dups},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := mk(tc.srcs)
			recv := make([]RecvMsg, len(orig))
			if allocs := testing.AllocsPerRun(5, func() {
				copy(recv, orig)
				SortBySrc(recv)
			}); allocs > 0 {
				t.Errorf("SortBySrc allocated %.0f times", allocs)
			}
			seen := make(map[int]int)
			for i, m := range recv {
				pos := int(m.Data[0]) | int(m.Data[1])<<8
				if tc.srcs[pos] != m.Src {
					t.Fatalf("entry %d: Src %d carries the payload of position %d (Src %d)", i, m.Src, pos, tc.srcs[pos])
				}
				seen[pos]++
				if i == 0 {
					continue
				}
				prev := recv[i-1]
				if prev.Src > m.Src {
					t.Fatalf("entry %d: Src %d after %d", i, m.Src, prev.Src)
				}
				if prevPos := int(prev.Data[0]) | int(prev.Data[1])<<8; prev.Src == m.Src && prevPos > pos {
					t.Fatalf("entry %d: equal Src %d reordered (position %d before %d)", i, m.Src, prevPos, pos)
				}
			}
			if len(seen) != len(tc.srcs) {
				t.Fatalf("sorted list holds %d distinct entries, want %d", len(seen), len(tc.srcs))
			}
		})
	}
}
