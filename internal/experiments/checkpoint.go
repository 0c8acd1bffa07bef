package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	pario "repro"
	"repro/internal/blockio"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern names the blocks each rank of a checkpoint writes. Patterns
// are block-disjoint across ranks.
type Pattern string

const (
	// Interleaved: rank r writes every block ≡ r (mod ranks), file-wide
	// — the strided checkpoint.
	Interleaved Pattern = "interleaved"
	// Shifted: the file splits into one slab per rank; rank r writes
	// slab (r+3) mod ranks except its last 8 blocks, plus the last 8
	// blocks of slab (r+2) mod ranks. Round-robin aggregator domains
	// ship every byte; locality-aware ones ship only the tails.
	Shifted Pattern = "shifted"
	// Dense: every other block of the rank's contiguous slice.
	Dense Pattern = "dense"
	// Sparse: 8-block runs every 64 blocks of the rank's slice.
	Sparse Pattern = "sparse"
)

// shiftedStraggler is the tail of each slab a Shifted neighbor writes.
const shiftedStraggler = 8

// vec builds rank's write descriptor over a file of records blocks of
// bs bytes, packing the pieces densely into the rank's buffer.
func (pt Pattern) vec(rank, ranks int, records, bs int64) blockio.Vec {
	var vec blockio.Vec
	var off int64
	add := func(b, n int64) {
		vec = append(vec, blockio.VecSeg{Block: b, N: n, BufOff: off})
		off += n * bs
	}
	slice := records / int64(ranks)
	base := int64(rank) * slice
	switch pt {
	case Shifted:
		main := int64((rank+3)%ranks) * slice
		tail := int64((rank+2)%ranks) * slice
		add(main, slice-shiftedStraggler)
		add(tail+slice-shiftedStraggler, shiftedStraggler)
	case Dense:
		for i := int64(0); i < slice/2; i++ {
			add(base+2*i, 1)
		}
	case Sparse:
		for b := int64(0); b+8 <= slice; b += 64 {
			add(base+b, 8)
		}
	default:
		for b := int64(rank); b < records; b += int64(ranks) {
			add(b, 1)
		}
	}
	return vec
}

// Checkpoint is the parameterized checkpoint every collective scenario
// is built from: Ranks ranks write their Pattern share of a Records-block
// file (one record per block), then the file is verified byte for byte.
// Dense and Sparse patterns use a partitioned file, one partition per
// drive, so a rank's holes are real on-device holes; the others use a
// unit-1 declustered global-direct file.
type Checkpoint struct {
	Ranks   int
	Records int64
	Pattern Pattern // zero: Interleaved
	// Drives and Geometry size the array; zero means four default 1989
	// drives.
	Drives   int
	Geometry device.Geometry
	// Profile configures the drive queues, the ranks' interconnect, the
	// collective handle and the restart scan's access options.
	Profile pario.Profile
	// Independent issues each rank's pieces as one WriteVec instead of
	// a collective write.
	Independent bool
	// Restart has rank 0 scan the whole file back, checking every
	// record, once all ranks have written.
	Restart bool
	// Iters rewrites the checkpoint with fresh contents that many times
	// (zero: once) through one collective handle.
	Iters int
}

// ckptRun is one measured checkpoint.
type ckptRun struct {
	elapsed   time.Duration // modeled
	wall      time.Duration // host time spent simulating
	requests  int64         // device requests
	bytes     int64         // payload bytes written per iteration
	linkBytes int64         // bytes the rank group put on the interconnect
	stats     collective.ExchangeStats
	route     string
}

// Run builds the checkpoint's machine, runs it under rec (nil:
// detached), verifies the file and reports its metrics: elapsed_ns,
// wall_ns, requests, bytes, link_bytes, bytes_moved, bytes_local,
// exchange_ns, access_ns and overlap_ns (the last call's split).
func (c Checkpoint) Run(rec *probe.Recorder) (*Result, error) {
	r, err := c.run(rec)
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: r.metrics()}, nil
}

func (r ckptRun) metrics() map[string]float64 {
	return map[string]float64{
		"elapsed_ns":  float64(r.elapsed),
		"wall_ns":     float64(r.wall),
		"requests":    float64(r.requests),
		"bytes":       float64(r.bytes),
		"link_bytes":  float64(r.linkBytes),
		"bytes_moved": float64(r.stats.BytesMoved),
		"bytes_local": float64(r.stats.BytesLocal),
		"exchange_ns": float64(r.stats.ExchangeTime),
		"access_ns":   float64(r.stats.AccessTime),
		"overlap_ns":  float64(r.stats.Overlap),
	}
}

func (c Checkpoint) run(rec *probe.Recorder) (ckptRun, error) {
	var out ckptRun
	m, err := machine(c.Drives, c.Geometry, c.Profile, rec)
	if err != nil {
		return out, err
	}
	bs := int64(m.Disks[0].Geometry().BlockSize)
	spec := pfs.Spec{
		Name: "ckpt", Org: pfs.OrgGlobalDirect, RecordSize: int(bs), BlockRecords: 1,
		NumRecords: c.Records, Placement: pfs.PlaceStriped, StripeUnitFS: 1,
	}
	if c.Pattern == Dense || c.Pattern == Sparse {
		spec = pfs.Spec{
			Name: "ckpt", Org: pfs.OrgPartitioned, RecordSize: int(bs), BlockRecords: 1,
			NumRecords: c.Records, Parts: len(m.Disks),
		}
	}
	f, err := m.Volume.Create(spec)
	if err != nil {
		return out, err
	}
	group, err := m.Volume.OpenGroup("ckpt")
	if err != nil {
		return out, err
	}
	col, err := collective.Open(group, c.Ranks, c.Profile.Collective)
	if err != nil {
		return out, err
	}
	last := max(c.Iters, 1) - 1
	written := make([]bool, c.Records)
	errs := make([]error, c.Ranks)
	rg := m.GoRanks(c.Ranks, "rank", func(r *pario.Rank) {
		vec := c.Pattern.vec(r.Rank(), c.Ranks, c.Records, bs)
		reqs := []collective.VecReq{{File: 0, Vec: vec}}
		buf := make([]byte, vecBlocks(vec)*bs)
		for it := 0; it <= last; it++ {
			stampVec(buf, vec, bs, it)
			var err error
			if c.Independent {
				err = f.Set().WriteVec(r.Proc, vec, buf)
			} else {
				err = col.WriteAll(r, reqs, buf)
			}
			if err != nil && errs[r.Rank()] == nil {
				errs[r.Rank()] = err
			}
		}
		for _, sg := range vec {
			for b := sg.Block; b < sg.Block+sg.N; b++ {
				written[b] = true
			}
		}
		out.bytes += int64(len(buf))
		if c.Restart && r.Rank() == 0 && errs[0] == nil {
			errs[0] = scanBack(r.Proc, f, c.Profile.Access, c.Records, last)
		}
	})
	c.Profile.ConfigureRanks(rg)
	start := time.Now()
	if err := m.Run(); err != nil {
		return out, err
	}
	out.wall = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	out.elapsed = m.Engine.Now()
	out.requests = requests(m.Disks)
	out.stats, out.route = col.LastStats(), col.LastRoute()
	_, out.linkBytes = rg.Traffic()
	return out, verifyFile(f, m.Disks, written, last)
}

// scanBack reads f sequentially through opts — the restart after a
// checkpoint — checking every record against write iteration it.
func scanBack(p *sim.Proc, f *pfs.File, opts core.Options, records int64, it int) error {
	rd, err := core.OpenReader(f, opts)
	if err != nil {
		return err
	}
	for b := int64(0); ; b++ {
		rec, _, err := rd.ReadRecord(p)
		if err == io.EOF {
			if b != records {
				return fmt.Errorf("restart scan ended after %d of %d records", b, records)
			}
			return rd.Close(p)
		}
		if err != nil {
			return err
		}
		if err := check(rec, b, it); err != nil {
			return fmt.Errorf("restart scan: %w", err)
		}
	}
}

// collectiveScenario: an 8-rank strided checkpoint issued independently
// (each rank one vectored write of its own records — physically
// strided, so nothing merges) versus collectively (ranks exchange with
// aggregator ranks over a 100 MB/s interconnect, each aggregator writes
// one contiguous file domain as a cross-file batch).
func collectiveScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Collective I/O: 8-rank strided checkpoint, 1024 records (4 KiB) on 4 devices, unit-1 declustered",
		"mode", "requests", "elapsed", "MB/s", "speedup")
	metrics := map[string]float64{}
	var base time.Duration
	for _, mode := range []string{"independent", "collective"} {
		if mode == "independent" {
			rec.SetScope("collective/independent")
		} else {
			rec.SetScope("collective/two-phase")
		}
		r, err := CollectiveCheckpoint(mode == "independent").run(rec)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = r.elapsed
		}
		t.AddRow(mode, r.requests, r.elapsed, stats.MBps(r.bytes, r.elapsed), speedup(base, r.elapsed))
		put(metrics, mode, r.metrics())
	}
	t.Note = "two-phase: ranks ship pieces to aggregator ranks (modeled 100 MB/s link), each aggregator\nwrites one contiguous file domain as a single cross-file gather per device"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// CollectiveCheckpoint is the collective scenario: 8 ranks write the
// strided checkpoint of 1024 records over 4 default drives, on a
// 10 µs / 100 MB/s per-process link charged only to the collective.
func CollectiveCheckpoint(independent bool) Checkpoint {
	return Checkpoint{
		Ranks: 8, Records: 1024, Independent: independent,
		Profile: pario.Profile{LinkMsg: 10 * time.Microsecond, LinkBytes: 100e6},
	}
}

// StrategyCell is one configuration of the strategy sweep: an access
// pattern, a rank count and a fast or congested interconnect.
type StrategyCell struct {
	Pattern   Pattern
	Ranks     int
	Congested bool
}

// Name labels the cell as pattern/rN/link.
func (c StrategyCell) Name() string { return fmt.Sprintf("%s/r%d/%s", c.Pattern, c.Ranks, c.link()) }

func (c StrategyCell) link() string {
	if c.Congested {
		return "congested"
	}
	return "fast"
}

// StrategyCells enumerates the density × rank-count × link sweep.
func StrategyCells() []StrategyCell {
	var cells []StrategyCell
	for _, pattern := range []Pattern{Dense, Sparse, Interleaved} {
		for _, ranks := range []int{4, 8} {
			for _, congested := range []bool{false, true} {
				cells = append(cells, StrategyCell{pattern, ranks, congested})
			}
		}
	}
	return cells
}

// Checkpoint is the cell's rank-disjoint collective write of 1024
// blocks over 4 default drives under strategy strat.
func (c StrategyCell) Checkpoint(strat blockio.Strategy) Checkpoint {
	pf := pario.Profile{LinkMsg: 10 * time.Microsecond, LinkBytes: 100e6}
	if c.Congested {
		pf = pario.Profile{LinkMsg: 100 * time.Microsecond, LinkBytes: 2e6, Bisection: 1e6}
	}
	pf.Collective.Strategy = strat
	return Checkpoint{Ranks: c.Ranks, Records: 1024, Pattern: c.Pattern, Profile: pf}
}

// strategyScenario sweeps the strategy selector: every cell executed
// under each fixed strategy (vectored, sieved, two-phase) and under
// StrategyAuto, which prices the routes per call. Dense partition-local
// patterns favor sieving, sparse ones vectored I/O, interleaved ones the
// two-phase exchange — until link congestion inverts that trade; the
// route column shows what Auto picked.
func strategyScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Strategy selection: rank-disjoint collective writes, 1024 blocks (4 KiB) on 4 devices",
		"pattern", "ranks", "link", "vectored", "sieved", "two-phase", "auto", "route")
	metrics := map[string]float64{}
	for _, cell := range StrategyCells() {
		row := []any{cell.Pattern, cell.Ranks, cell.link()}
		var route string
		for _, strat := range []blockio.Strategy{
			blockio.StrategyVectored, blockio.StrategySieved,
			blockio.StrategyCollective, blockio.StrategyAuto,
		} {
			rec.SetScope(fmt.Sprintf("strategy/%s-r%d-%s/%v", cell.Pattern, cell.Ranks, cell.link(), strat))
			r, err := cell.Checkpoint(strat).run(rec)
			if err != nil {
				return nil, err
			}
			row = append(row, r.elapsed)
			route = r.route
			put(metrics, fmt.Sprintf("%s/%v", cell.Name(), strat), r.metrics())
		}
		t.AddRow(append(row, route)...)
	}
	t.Note = "auto prices vectored/sieved/two-phase per call from the drive parameters and the link model;\nroute is the path auto picked — dense favors sieving, sparse vectored, interleaved two-phase\n(until congestion inverts the trade)"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// LocalityCheckpoint is the contended scenario's shifted checkpoint:
// ranks write one slab each of 1024 records over 4 default drives,
// every rank an aggregator, on 10 µs / 2.5 MB/s per-process links
// sharing a bisection pool of the given bandwidth (0: none), with
// round-robin or locality-aware aggregator domains.
func LocalityCheckpoint(ranks int, bisection float64, locality bool) Checkpoint {
	return Checkpoint{
		Ranks: ranks, Records: 1024, Pattern: Shifted,
		Profile: pario.Profile{
			LinkMsg: 10 * time.Microsecond, LinkBytes: 2.5e6, Bisection: bisection,
			Collective: collective.Options{Aggregators: ranks, Locality: locality},
		},
	}
}

// contendedScenario sweeps rank count × bisection bandwidth over the
// shifted checkpoint. The shared link makes exchange cost scale with
// total volume, so the locality win grows with rank count and
// contention.
func contendedScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Contention-aware collective I/O: shifted checkpoint, 1024 records (4 KiB) on 4 devices,\nper-process link 2.5 MB/s, aggregator domains round-robin vs locality-aware",
		"ranks", "bisection", "moved rr", "moved loc", "elapsed rr", "elapsed loc", "speedup")
	metrics := map[string]float64{}
	for _, ranks := range []int{4, 8, 16} {
		for _, bisect := range []float64{0, 25e6, 5e6} {
			var runs [2]ckptRun
			for i, pol := range []string{"rr", "loc"} {
				rec.SetScope(fmt.Sprintf("contended/%d/%.0f/%s", ranks, bisect/1e6, pol))
				r, err := LocalityCheckpoint(ranks, bisect, pol == "loc").run(rec)
				if err != nil {
					return nil, err
				}
				runs[i] = r
				put(metrics, fmt.Sprintf("%d/%.0f/%s", ranks, bisect/1e6, pol), r.metrics())
			}
			bis := "free"
			if bisect > 0 {
				bis = fmt.Sprintf("%.0f MB/s", bisect/1e6)
			}
			t.AddRow(ranks, bis,
				fmt.Sprintf("%.2f MB", float64(runs[0].stats.BytesMoved)/1e6),
				fmt.Sprintf("%.2f MB", float64(runs[1].stats.BytesMoved)/1e6),
				runs[0].elapsed, runs[1].elapsed, speedup(runs[0].elapsed, runs[1].elapsed))
		}
	}
	t.Note = "rr = round-robin domains, loc = locality-aware (Options.Locality); moved = bytes crossing the\ninterconnect (Collective.LastStats). Device requests are identical — the win is pure exchange."
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// PipelineCheckpoint is the pipeline scenario: the 8-rank strided
// checkpoint of 4096 records over 4 default drives, 100 MB/s links
// sharing a bisection pool of the given bandwidth, through a collective
// that stages chunkBytes per round (0: single-shot).
func PipelineCheckpoint(chunkBytes int64, bisection float64) Checkpoint {
	return Checkpoint{
		Ranks: 8, Records: 4096,
		Profile: pario.Profile{
			LinkMsg: 10 * time.Microsecond, LinkBytes: 100e6, Bisection: bisection,
			Collective: collective.Options{ChunkBytes: chunkBytes},
		},
	}
}

// pipelineScenario compares the single-shot two-phase collective (whole
// exchange, then whole access — each phase idles the other's resource)
// with the pipelined schedule, where the exchange of chunk k+1 overlaps
// the device access of chunk k.
func pipelineScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Pipelined collective I/O: 8-rank strided checkpoint, 4096 records (4 KiB) on 4 devices,\n100 MB/s links sharing a 5 MB/s bisection pool",
		"chunk", "requests", "elapsed", "MB/s", "overlap", "link idle", "speedup")
	metrics := map[string]float64{}
	var base time.Duration
	for _, chunk := range []int64{0, 64 * 4096, 256 * 4096} {
		rec.SetScope(fmt.Sprintf("pipeline/%dKiB", chunk/1024))
		r, err := PipelineCheckpoint(chunk, 5e6).run(rec)
		if err != nil {
			return nil, err
		}
		name := "single-shot"
		if chunk > 0 {
			name = fmt.Sprintf("%d KiB", chunk/1024)
		} else {
			base = r.elapsed
		}
		t.AddRow(name, r.requests, r.elapsed, stats.MBps(r.bytes, r.elapsed),
			r.stats.Overlap.Round(time.Millisecond),
			fmt.Sprintf("%.0f%%", 100*(1-r.stats.ExchangeTime.Seconds()/r.elapsed.Seconds())),
			speedup(base, r.elapsed))
		put(metrics, name, r.metrics())
	}
	t.Note = "overlap = virtual time with the exchange and the drives concurrently busy (Collective.LastStats);\nchunking trades per-chunk request overhead for that overlap — TestPipelineWin enforces the win"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// ProfileCheckpoint is the profile scenario under pf: an 8-rank strided
// collective write of 2048 records, then rank 0's restart scan, on 4
// drives configured by the profile.
func ProfileCheckpoint(pf pario.Profile) Checkpoint {
	return Checkpoint{Ranks: 8, Records: 2048, Profile: pf, Restart: true}
}

// ProfileScenario runs the checkpoint + restart scenario under the named
// profile ("paper" or "tuned"), or under both for comparison when which
// is empty. The registry runs both.
func ProfileScenario(rec *probe.Recorder, which string) (*Result, error) {
	var profiles []pario.Profile
	switch which {
	case "paper":
		profiles = []pario.Profile{pario.PaperProfile()}
	case "tuned":
		profiles = []pario.Profile{pario.TunedProfile()}
	case "":
		profiles = []pario.Profile{pario.PaperProfile(), pario.TunedProfile()}
	default:
		return nil, fmt.Errorf("unknown profile %q (want tuned or paper)", which)
	}
	t := stats.NewTable("Cross-layer profiles: checkpoint write (8-rank collective) + restart scan, 2048 records (4 KiB)\non 4 devices, unit-1 declustered",
		"profile", "requests", "elapsed", "MB/s", "speedup")
	metrics := map[string]float64{}
	var base time.Duration
	for _, pf := range profiles {
		rec.SetScope("profile/" + pf.Name)
		r, err := ProfileCheckpoint(pf).run(rec)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = r.elapsed
		}
		// The file is written, then read back.
		t.AddRow(pf.Name, r.requests, r.elapsed, stats.MBps(2*r.bytes, r.elapsed), speedup(base, r.elapsed))
		put(metrics, pf.Name, r.metrics())
	}
	t.Note = "paper = the pinned 1989 model (free link, FCFS, block-at-a-time, single-shot collectives);\ntuned = TunedProfile (extents, SCAN+merge, modeled link, locality + chunked collectives)"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// smallGeometry is the 256-byte-block drive of the engine-scaling
// scenarios, sized so thousands of ranks fit a few dozen drives.
var smallGeometry = device.Geometry{BlockSize: 256, BlocksPerCyl: 8, Cylinders: 64}

// ScaleCheckpoint is the scale scenario at one machine size: every rank
// writes two strided blocks over drives small drives through a collective
// chunked at 8 blocks, with 100 MB/s links sharing a 500 MB/s bisection
// pool.
func ScaleCheckpoint(ranks, drives int) Checkpoint {
	return Checkpoint{
		Ranks: ranks, Records: int64(2 * ranks), Drives: drives, Geometry: smallGeometry,
		Profile: pario.Profile{
			LinkMsg: 2 * time.Microsecond, LinkBytes: 100e6, Bisection: 500e6,
			Collective: collective.Options{ChunkBytes: 8 * int64(smallGeometry.BlockSize)},
		},
	}
}

// scaleScenario sweeps the simulation itself: the contended pipelined
// checkpoint at growing machine sizes, reporting how much wall-clock
// time one modeled second costs. 4096 ranks × 256 drives must stay in
// single-digit seconds.
func scaleScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Engine scaling: contended pipelined collective checkpoint, wall-clock cost per modeled second",
		"ranks", "drives", "modeled", "wall", "wall s / modeled s")
	metrics := map[string]float64{}
	for _, cfg := range [][2]int{{256, 16}, {1024, 64}, {4096, 256}} {
		ranks, drives := cfg[0], cfg[1]
		rec.SetScope(fmt.Sprintf("scale/%dx%d", ranks, drives))
		r, err := ScaleCheckpoint(ranks, drives).run(rec)
		if err != nil {
			return nil, err
		}
		t.AddRow(ranks, drives, r.elapsed, r.wall.Round(time.Millisecond),
			fmt.Sprintf("%.3f", r.wall.Seconds()/r.elapsed.Seconds()))
		put(metrics, fmt.Sprintf("%dx%d", ranks, drives), r.metrics())
	}
	t.Note = "wall time is host-dependent; the shape to watch is sub-linear growth in wall s / modeled s\nas ranks × drives grow. BenchmarkEngineScale tracks the 4096 × 256 point in CI (BENCH_scale.json)."
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// replayCheckpoint is the replay scenario's iterated checkpoint: every
// rank rewrites its 8 interleaved blocks iters times with fresh contents
// over 16 small drives, 50 MB/s links sharing a 200 MB/s bisection
// pool, with the collective's schedule cache on or off.
func replayCheckpoint(ranks, iters int, cache bool) Checkpoint {
	c := Checkpoint{
		Ranks: ranks, Records: int64(8 * ranks), Drives: 16, Geometry: smallGeometry, Iters: iters,
		Profile: pario.Profile{LinkMsg: 2 * time.Microsecond, LinkBytes: 50e6, Bisection: 200e6},
	}
	if !cache {
		c.Profile.Collective.PlanCache = -1
	}
	return c
}

// replayScenario sweeps the schedule cache: the iterated checkpoint with
// the plan cache on — iteration 1 plans, the rest replay the captured
// schedule — versus off (every iteration replans). Modeled time is
// identical by construction; the column to watch is host wall-clock.
func replayScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Plan capture & replay: iterated collective checkpoint, host wall-clock cached vs uncached",
		"ranks", "iterations", "modeled", "wall uncached", "wall cached", "speedup")
	metrics := map[string]float64{}
	for _, ranks := range []int{256, 1024} {
		for _, iters := range []int{4, 32} {
			var runs [2]ckptRun
			for i, mode := range []string{"uncached", "cached"} {
				rec.SetScope(fmt.Sprintf("replay/%dx%d/%s", ranks, iters, mode))
				r, err := replayCheckpoint(ranks, iters, mode == "cached").run(rec)
				if err != nil {
					return nil, err
				}
				runs[i] = r
				put(metrics, fmt.Sprintf("%dx%d/%s", ranks, iters, mode), r.metrics())
			}
			t.AddRow(ranks, iters, runs[1].elapsed, runs[0].wall.Round(time.Millisecond),
				runs[1].wall.Round(time.Millisecond), speedup(runs[0].wall, runs[1].wall))
		}
	}
	t.Note = "cached: iteration 1 builds and captures the schedule, iterations 2+ replay it (fingerprint\nlookup + payload packing only). Modeled results are bit-identical either way — TestPlanReplayWin\nenforces the host-side win and the identity (BENCH_replay.json tracks it in CI)."
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
