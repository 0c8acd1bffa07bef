package experiments

import (
	"fmt"
	"time"

	pario "repro"
	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// seekScenario prints seek time versus distance for the default drive,
// so the timing assumptions behind every experiment are inspectable. It
// only reads never-written blocks.
func seekScenario(rec *probe.Recorder) (*Result, error) {
	rec.SetScope("seek")
	m, err := machine(1, device.Geometry{}, pario.Profile{}, rec)
	if err != nil {
		return nil, err
	}
	d := m.Disks[0]
	geom := d.Geometry()
	t := stats.NewTable("Seek curve (default 1989 drive, √distance model)",
		"distance (cylinders)", "seek time")
	metrics := map[string]float64{}
	var readErr error
	m.Go("probe", func(p *sim.Proc) {
		buf := make([]byte, geom.BlockSize)
		for _, dist := range []int{0, 1, 10, 100, 400, geom.Cylinders - 1} {
			// Rehome to cylinder 0, then time one read dist cylinders away.
			if readErr = d.ReadBlock(p, 0, buf); readErr != nil {
				return
			}
			t0 := p.Now()
			if readErr = d.ReadBlock(p, int64(dist)*int64(geom.BlocksPerCyl), buf); readErr != nil {
				return
			}
			t.AddRow(dist, p.Now()-t0)
			metrics[fmt.Sprintf("seek_ns/%d", dist)] = float64(p.Now() - t0)
		}
	})
	if err := m.Run(); err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	t.Note = "includes fixed overhead + half-rotation + one-block transfer"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// serviceScenario prints the service-time decomposition of the default
// drive for common transfer sizes. It performs no I/O.
func serviceScenario(*probe.Recorder) (*Result, error) {
	timing := device.DefaultTiming1989()
	t := stats.NewTable("Single-request service time, no seek (default drive)",
		"transfer size", "overhead", "rotation/2", "transfer", "total")
	metrics := map[string]float64{}
	for _, size := range []int{4096, 16384, 65536} {
		tr := time.Duration(float64(size) / timing.TransferRate * float64(time.Second))
		total := timing.Overhead + timing.RotationPeriod/2 + tr
		t.AddRow(fmt.Sprintf("%d KiB", size/1024), timing.Overhead, timing.RotationPeriod/2, tr, total)
		metrics[fmt.Sprintf("service_ns/%dKiB", size/1024)] = float64(total)
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// stripeScenario shows aggregate bandwidth of a raw striped scan: one
// reader per device pulls the next block of a 256-block range. It only
// reads never-written blocks.
func stripeScenario(rec *probe.Recorder) (*Result, error) {
	const blocks = 256
	t := stats.NewTable("Raw striped scan of 256 blocks (4 KiB), read-ahead = device count",
		"devices", "elapsed", "MB/s")
	metrics := map[string]float64{}
	for _, devs := range []int{1, 2, 4, 8} {
		rec.SetScope(fmt.Sprintf("stripe/%d", devs))
		m, err := machine(devs, device.Geometry{}, pario.Profile{}, rec)
		if err != nil {
			return nil, err
		}
		store := m.Volume.Store()
		set, err := blockio.NewSet(store, blockio.NewStriped(devs, 1), make([]int64, devs))
		if err != nil {
			return nil, err
		}
		var readErr error
		m.Go("main", func(p *sim.Proc) {
			var g sim.Group
			next := int64(0)
			for w := 0; w < devs; w++ {
				g.Spawn(p.Engine(), "reader", func(c *sim.Proc) {
					buf := make([]byte, store.BlockSize())
					for next < blocks && readErr == nil {
						b := next
						next++
						readErr = set.ReadBlock(c, b, buf)
					}
				})
			}
			g.Wait(p)
		})
		if err := m.Run(); err != nil {
			return nil, err
		}
		if readErr != nil {
			return nil, readErr
		}
		elapsed := m.Engine.Now()
		t.AddRow(devs, elapsed, stats.MBps(blocks*int64(store.BlockSize()), elapsed))
		metrics[fmt.Sprintf("elapsed_ns/%d", devs)] = float64(elapsed)
	}
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// Scan is the parameterized sequential scan: a Records-record S file of
// 4 KiB records striped over 4 default drives in units of Unit blocks
// is written through 8-block extents, then read back record by record
// through Extent-block extents, every record checked. With Unit 1
// logically consecutive blocks alternate devices, so extent I/O cannot
// coalesce them and each extent goes out as one gather run per device.
type Scan struct {
	Records int64
	Unit    int64
	Extent  int
}

// ExtentScan is the extent scenario: 4096 records, stripe unit 8.
func ExtentScan(extent int) Scan { return Scan{Records: 4096, Unit: 8, Extent: extent} }

// VectoredScan is the noncontig scenario: 4096 records, unit-1
// declustered.
func VectoredScan(extent int) Scan { return Scan{Records: 4096, Unit: 1, Extent: extent} }

// Run builds the scan's machine, runs it under rec (nil: detached) and
// reports the read phase's metrics: elapsed_ns, requests and bytes.
func (s Scan) Run(rec *probe.Recorder) (*Result, error) {
	elapsed, reqs, err := s.run(rec)
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: map[string]float64{
		"elapsed_ns": float64(elapsed),
		"requests":   float64(reqs),
		"bytes":      float64(s.Records * 4096),
	}}, nil
}

func (s Scan) run(rec *probe.Recorder) (elapsed time.Duration, reqs int64, err error) {
	m, err := machine(4, device.Geometry{}, pario.Profile{}, rec)
	if err != nil {
		return 0, 0, err
	}
	f, err := m.Volume.Create(pario.Spec{
		Name: "scan", Org: pario.OrgSequential,
		RecordSize: 4096, BlockRecords: 1, NumRecords: s.Records,
		Placement: pario.PlaceStriped, StripeUnitFS: s.Unit,
	})
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	m.Go("scan", func(p *sim.Proc) {
		w, err := core.OpenWriter(f, core.Options{NBufs: 2, IOProcs: 1, ExtentBlocks: 8})
		if err != nil {
			runErr = err
			return
		}
		rec := make([]byte, 4096)
		for r := int64(0); r < s.Records; r++ {
			stamp(rec, r, 0)
			if _, err := w.WriteRecord(p, rec); err != nil {
				runErr = err
				return
			}
		}
		if runErr = w.Close(p); runErr != nil {
			return
		}
		for _, d := range m.Disks {
			d.ResetStats()
		}
		start := p.Now()
		rd, err := core.OpenReader(f, core.Options{NBufs: 2, IOProcs: 1, ExtentBlocks: s.Extent})
		if err != nil {
			runErr = err
			return
		}
		if runErr = checkRecords(p, rd, s.Records); runErr != nil {
			return
		}
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		return 0, 0, err
	}
	return elapsed, requests(m.Disks), runErr
}

// extentScenario shows request coalescing: the striped scan read back
// block-at-a-time versus through multi-block extents.
func extentScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Extent coalescing: sequential read of 4096 records (4 KiB) on 4 devices, stripe unit 8",
		"extent (blocks)", "requests", "elapsed", "MB/s")
	metrics := map[string]float64{}
	for _, extent := range []int{1, 8, 32} {
		rec.SetScope(fmt.Sprintf("extent/%d", extent))
		elapsed, reqs, err := ExtentScan(extent).run(rec)
		if err != nil {
			return nil, err
		}
		t.AddRow(extent, reqs, elapsed, stats.MBps(4096*4096, elapsed))
		metrics[fmt.Sprintf("requests/%d", extent)] = float64(reqs)
		metrics[fmt.Sprintf("elapsed_ns/%d", extent)] = float64(elapsed)
	}
	t.Note = "one queued request per physically contiguous run: overhead+seek+rotation paid once per extent"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}

// noncontigScenario shows scatter/gather coalescing on the layout
// extent I/O cannot serve: a unit-1 declustered file read back
// block-at-a-time, where every block is its own request, versus through
// extents, each of which collapses to one gather request per device.
func noncontigScenario(rec *probe.Recorder) (*Result, error) {
	t := stats.NewTable("Vectored I/O: sequential read of a unit-1 declustered file, 4096 records (4 KiB) on 4 devices",
		"extent (blocks)", "requests", "elapsed", "MB/s", "speedup")
	metrics := map[string]float64{}
	var base time.Duration
	for _, extent := range []int{1, 8, 32} {
		rec.SetScope(fmt.Sprintf("noncontig/%d", extent))
		elapsed, reqs, err := VectoredScan(extent).run(rec)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = elapsed
		}
		t.AddRow(extent, reqs, elapsed, stats.MBps(4096*4096, elapsed), speedup(base, elapsed))
		metrics[fmt.Sprintf("requests/%d", extent)] = float64(reqs)
		metrics[fmt.Sprintf("elapsed_ns/%d", extent)] = float64(elapsed)
	}
	t.Note = "unit-1 striping defeats extent coalescing (physically adjacent blocks are logically strided);\nthe scatter/gather descriptor merges them anyway: one gather request per device per extent"
	return &Result{Tables: []*stats.Table{t}, Metrics: metrics}, nil
}
