package collective

import (
	"strings"
	"testing"

	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
)

// planFixture builds a 2-file group (8 + 4 fs blocks) over 2 untimed
// devices.
func planFixture(t testing.TB) *pfs.FileGroup {
	t.Helper()
	disks := make([]*device.Disk, 2)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Geometry: device.Geometry{BlockSize: 64, BlocksPerCyl: 8, Cylinders: 64},
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		t.Fatal(err)
	}
	vol := pfs.NewVolume(store)
	for _, f := range []struct {
		name string
		recs int64
	}{{"a", 8}, {"b", 4}} {
		if _, err := vol.Create(pfs.Spec{
			Name: f.name, Org: pfs.OrgSequential, RecordSize: 64, NumRecords: f.recs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := vol.OpenGroup("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlanFootprintAndDomains(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	// Rank 0: file a blocks [0,2) and [4,6); rank 1: file a [2,4) and
	// file b [1,3). Union: a[0,6) plus b[1,3) = global [0,6) and [9,11),
	// 8 covered blocks with a 3-block hole.
	reqs := [][]VecReq{
		{{File: 0, Vec: blockio.Vec{{Block: 0, N: 2, BufOff: 0}, {Block: 4, N: 2, BufOff: 2 * bs}}}},
		{{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 0}}}, {File: 1, Vec: blockio.Vec{{Block: 1, N: 2, BufOff: 2 * bs}}}},
	}
	bufs := [][]byte{make([]byte, 4*bs), make([]byte, 4*bs)}
	pl, err := buildPlan(g, reqs, bufs, 3, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.covered) != 2 || pl.covered[0] != (span{gb: 0, n: 6}) || pl.covered[1] != (span{gb: 9, n: 2}) {
		t.Fatalf("covered = %+v", pl.covered)
	}
	if pl.total != 8 || pl.domBlocks != 3 {
		t.Fatalf("total %d domBlocks %d", pl.total, pl.domBlocks)
	}
	// Domains: [0,3), [3,6), [6,8) — the last ragged.
	for a, want := range [][2]int64{{0, 3}, {3, 6}, {6, 8}} {
		lo, hi := pl.domain(a)
		if lo != want[0] || hi != want[1] {
			t.Fatalf("domain %d = [%d,%d), want %v", a, lo, hi, want)
		}
	}
	if ci := pl.coveredIndex(9); ci != 6 {
		t.Fatalf("coveredIndex(9) = %d, want 6 (hole skipped)", ci)
	}
	// Rank 0 ∩ domain 1 = covered [3,6) ∩ rank-0 segs {[0,2),[4,6)}:
	// blocks 4,5 are covered indexes 4,5 → one 2-block clip at domOff bs.
	var clips []clip
	pl.forEachClip(0, 1, func(c clip) { clips = append(clips, c) })
	if len(clips) != 1 || clips[0] != (clip{n: 2, bufOff: 2 * bs, domOff: 1 * bs}) {
		t.Fatalf("clips(0,1) = %+v", clips)
	}
	// Domain 2 spans the hole: covered [6,8) = global [9,11) — one span.
	var spans [][3]int64
	pl.forEachDomainSpan(2, func(gb, n, off int64) { spans = append(spans, [3]int64{gb, n, off}) })
	if len(spans) != 1 || spans[0] != [3]int64{9, 2, 0} {
		t.Fatalf("domain 2 spans = %v", spans)
	}
	// Domain 0 covers global [0,3) entirely within file a.
	spans = nil
	pl.forEachDomainSpan(0, func(gb, n, off int64) { spans = append(spans, [3]int64{gb, n, off}) })
	if len(spans) != 1 || spans[0] != [3]int64{0, 3, 0} {
		t.Fatalf("domain 0 spans = %v", spans)
	}
}

// slabReqs builds one rank request covering global blocks [lo, hi) of
// file 0 with buffer offset 0 (planFixture's file a is 8 blocks).
func slabReqs(lo, hi int64) []VecReq {
	return []VecReq{{File: 0, Vec: blockio.Vec{{Block: lo, N: hi - lo, BufOff: 0}}}}
}

func TestPlanLocalityAssignment(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	mkBufs := func(reqs [][]VecReq) [][]byte {
		bufs := make([][]byte, len(reqs))
		for i := range bufs {
			bufs[i] = make([]byte, 8*bs)
		}
		return bufs
	}

	t.Run("default is round-robin", func(t *testing.T) {
		reqs := [][]VecReq{slabReqs(6, 8), slabReqs(3, 6), slabReqs(0, 3)}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 3, true, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for a, r := range pl.owner {
			if r != a {
				t.Fatalf("default owner[%d] = %d, want %d", a, r, a)
			}
		}
	})

	t.Run("majority owner wins", func(t *testing.T) {
		// Reversed slabs: domain 0 = blocks [0,3) written by rank 2 (2
		// blocks) and rank 1 (1 block); domain 1 all rank 1; domain 2 all
		// rank 0.
		reqs := [][]VecReq{slabReqs(6, 8), slabReqs(2, 6), slabReqs(0, 2)}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 3, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{2, 1, 0}; pl.owner[0] != want[0] || pl.owner[1] != want[1] || pl.owner[2] != want[2] {
			t.Fatalf("locality owners = %v, want %v", pl.owner, want)
		}
		st := pl.exchangeStats(3)
		// Only rank 1's block 2 lands in a domain (0) it does not own.
		if st.BytesMoved != 1*bs || st.BytesLocal != 7*bs {
			t.Fatalf("stats = %+v, want 1 block moved, 7 local", st)
		}
	})

	t.Run("tie goes to the lower rank", func(t *testing.T) {
		// One 4-block domain, ranks 1 and 2 own two blocks each.
		reqs := [][]VecReq{nil, slabReqs(0, 2), slabReqs(2, 4)}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 1, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if pl.owner[0] != 1 {
			t.Fatalf("tied domain owner = %d, want rank 1", pl.owner[0])
		}
	})

	t.Run("empty domains keep round-robin ranks", func(t *testing.T) {
		// 2 covered blocks over 3 domains of 1: the third domain is empty.
		reqs := [][]VecReq{slabReqs(0, 2), nil, nil}
		pl, err := buildPlan(g, reqs, mkBufs(reqs), 3, true, Options{Locality: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 0, 2}; pl.owner[0] != want[0] || pl.owner[1] != want[1] || pl.owner[2] != want[2] {
			t.Fatalf("owners = %v, want %v", pl.owner, want)
		}
	})
}

func TestPlanLastWriterWinsOverlap(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	buf := make([]byte, 8*bs)
	reqs := [][]VecReq{slabReqs(0, 4), slabReqs(2, 6)}
	bufs := [][]byte{buf, buf}
	if _, err := buildPlan(g, reqs, bufs, 2, true, Options{}); err == nil {
		t.Fatal("cross-rank write overlap accepted without LastWriterWins")
	}
	pl, err := buildPlan(g, reqs, bufs, 2, true, Options{LastWriterWins: true})
	if err != nil {
		t.Fatalf("LastWriterWins rejected the overlap: %v", err)
	}
	if pl.total != 6 {
		t.Fatalf("overlap footprint = %d blocks, want 6", pl.total)
	}
	// Only an overlapping plan makes write assembly sort its receive
	// lists by source; a long segment covering two later ones counts.
	if !pl.overlaps {
		t.Fatal("overlapping plan not flagged: assembly would skip the rank-order sort")
	}
	nested := [][]VecReq{slabReqs(0, 8), slabReqs(2, 3), slabReqs(5, 6)}
	if pl, err := buildPlan(g, nested, [][]byte{buf, buf, buf}, 2, true, Options{LastWriterWins: true}); err != nil || !pl.overlaps {
		t.Fatalf("nested overlap: err %v, flagged %v", err, err == nil && pl.overlaps)
	}
	disjoint := [][]VecReq{slabReqs(0, 2), slabReqs(2, 6)}
	if pl, err := buildPlan(g, disjoint, bufs, 2, true, Options{LastWriterWins: true}); err != nil || pl.overlaps {
		t.Fatalf("disjoint plan: err %v, flagged %v", err, err == nil && pl.overlaps)
	}
	// Same-rank overlaps stay rejected: their outcome has no rank order.
	self := [][]VecReq{{
		{File: 0, Vec: blockio.Vec{{Block: 0, N: 3, BufOff: 0}}},
		{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 4 * bs}}},
	}}
	if _, err := buildPlan(g, self, [][]byte{buf}, 2, true, Options{LastWriterWins: true}); err == nil {
		t.Fatal("same-rank overlap accepted under LastWriterWins")
	}
}

func TestPlanValidation(t *testing.T) {
	g := planFixture(t)
	bs := int64(64)
	buf := make([]byte, 8*bs)
	cases := []struct {
		name  string
		reqs  [][]VecReq
		write bool
		want  string
	}{
		{"bad file", [][]VecReq{{{File: 7, Vec: blockio.Vec{{N: 1}}}}}, true, "file 7"},
		{"beyond file", [][]VecReq{{{File: 1, Vec: blockio.Vec{{Block: 3, N: 2}}}}}, true, "blocks [3,5)"},
		{"misaligned buffer", [][]VecReq{{{File: 0, Vec: blockio.Vec{{Block: 0, N: 1, BufOff: 13}}}}}, true, "not aligned"},
		{"buffer overflow", [][]VecReq{{{File: 0, Vec: blockio.Vec{{Block: 0, N: 8, BufOff: bs}}}}}, true, "exceed"},
		{"rank self overlap", [][]VecReq{{
			{File: 0, Vec: blockio.Vec{{Block: 0, N: 4, BufOff: 0}}},
			{File: 0, Vec: blockio.Vec{{Block: 3, N: 2, BufOff: 4 * bs}}},
		}}, true, "overlap at global block"},
		{"rank buffer overlap", [][]VecReq{{
			{File: 0, Vec: blockio.Vec{{Block: 0, N: 2, BufOff: 0}}},
			{File: 0, Vec: blockio.Vec{{Block: 4, N: 2, BufOff: bs}}},
		}}, true, "overlap in the buffer"},
		{"cross-rank write overlap", [][]VecReq{
			{{File: 0, Vec: blockio.Vec{{Block: 0, N: 4, BufOff: 0}}}},
			{{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 0}}}},
		}, true, "write overlapping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bufs := make([][]byte, len(tc.reqs))
			for i := range bufs {
				bufs[i] = buf
			}
			_, err := buildPlan(g, tc.reqs, bufs, 2, tc.write, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("buildPlan = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// The same cross-rank overlap is legal for reads.
	reqs := [][]VecReq{
		{{File: 0, Vec: blockio.Vec{{Block: 0, N: 4, BufOff: 0}}}},
		{{File: 0, Vec: blockio.Vec{{Block: 2, N: 2, BufOff: 0}}}},
	}
	pl, err := buildPlan(g, reqs, [][]byte{buf, buf}, 2, false, Options{})
	if err != nil {
		t.Fatalf("read overlap rejected: %v", err)
	}
	if pl.total != 4 {
		t.Fatalf("read overlap footprint = %d blocks, want 4", pl.total)
	}
}

func TestPlanEmptyFootprint(t *testing.T) {
	g := planFixture(t)
	pl, err := buildPlan(g, [][]VecReq{nil, nil}, [][]byte{nil, nil}, 2, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.total != 0 {
		t.Fatalf("empty footprint total = %d", pl.total)
	}
	for a := 0; a < 2; a++ {
		if lo, hi := pl.domain(a); lo != hi {
			t.Fatalf("empty plan domain %d = [%d,%d)", a, lo, hi)
		}
	}
}

func TestRecordRangeReq(t *testing.T) {
	g := planFixture(t)
	req, err := RecordRangeReq(g, 0, 2, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := VecReq{File: 0, Vec: blockio.Vec{{Block: 2, N: 4, BufOff: 128}}}
	if req.File != want.File || len(req.Vec) != 1 || req.Vec[0] != want.Vec[0] {
		t.Fatalf("req = %+v, want %+v", req, want)
	}
	if _, err := RecordRangeReq(g, 5, 0, 1, 0); err == nil {
		t.Fatal("bad file accepted")
	}
	if _, err := RecordRangeReq(g, 0, 0, 99, 0); err == nil {
		t.Fatal("out-of-range records accepted")
	}
}
