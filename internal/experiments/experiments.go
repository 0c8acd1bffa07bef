// Package experiments is the one place scenarios are defined: the
// paper's figure and tables (F1, E1–E11) and the grown stack's device,
// scan, collective, service and scaling scenarios. Each driver builds a
// fresh simulated machine (1989-class drives under a virtual-time
// engine), runs the workload, verifies every byte it wrote, and returns
// paper-style tables plus named metrics. cmd/pariosim prints them; the
// root gates assert their bounds over the same metrics, calling the
// parameterized builders (Checkpoint, Scan, Multijob) the scenarios
// are made of.
package experiments

import (
	"fmt"
	"strings"
	"time"

	pario "repro"
	"repro/internal/blockio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is the outcome of one scenario run. Run fills ID and Title
// from the registry; the builders' point results carry Metrics only.
type Result struct {
	ID      string
	Title   string
	Tables  []*stats.Table
	Metrics map[string]float64
}

// String renders all tables.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	return out
}

// scenario is one registered driver. run records under rec (nil:
// detached), each configuration under its own scope.
type scenario struct {
	id, title string
	run       func(rec *probe.Recorder) (*Result, error)
}

// registry lists every scenario in canonical order.
var registry = []scenario{
	{"f1", "Figure 1: internal organizations of sequential parallel files", detached(Figure1)},
	{"e1", "E1: disk striping bandwidth for S files (§4)", detached(E1Striping)},
	{"e2", "E2: self-scheduled early pointer release (§4)", detached(E2SelfSched)},
	{"e3", "E3: one device per process — independent progress (§4)", detached(E3DevicePerProcess)},
	{"e4", "E4: fewer devices than processes — seek interference (§4)", detached(E4SeekInterference)},
	{"e5", "E5: declustering vs whole blocks under skew (§4, Livny)", detached(E5Decluster)},
	{"e6", "E6: buffering — overlap of I/O with computation (§4)", detached(E6Buffering)},
	{"e7", "E7: global view performance by placement (§4)", detached(E7GlobalView)},
	{"e8", "E8: reliability — MTBF, parity, shadowing (§5)", detached(E8Reliability)},
	{"e9", "E9: view mismatch remedies (§5)", detached(E9ViewMismatch)},
	{"e10", "E10: boundary data — replicate vs cache (§5)", detached(E10Boundary)},
	{"e11", "E11: file-per-process baseline (FEM, §3)", detached(E11FemBaseline)},
	{"seek", "seek time versus distance on the default drive", seekScenario},
	{"service", "single-request service time decomposition", serviceScenario},
	{"stripe", "striping: aggregate bandwidth of a raw scan", stripeScenario},
	{"extent", "extent I/O: request coalescing on a striped scan", extentScenario},
	{"noncontig", "vectored I/O: gather runs on a declustered scan", noncontigScenario},
	{"collective", "two-phase collective I/O on the strided checkpoint", collectiveScenario},
	{"strategy", "per-call strategy selection over density × ranks × link", strategyScenario},
	{"contended", "locality-aware aggregator domains on a contended link", contendedScenario},
	{"pipeline", "pipelined collective I/O on a contended checkpoint", pipelineScenario},
	{"replay", "plan capture & replay of an iterated checkpoint", replayScenario},
	{"profile", "paper vs tuned cross-layer profile, checkpoint + restart", func(rec *probe.Recorder) (*Result, error) { return ProfileScenario(rec, "") }},
	{"multijob", "multi-job I/O service under QoS policies", multijobScenario},
	{"scale", "engine scaling of the contended pipelined checkpoint", scaleScenario},
}

// detached adapts a driver that records nothing.
func detached(fn func() (*Result, error)) func(*probe.Recorder) (*Result, error) {
	return func(*probe.Recorder) (*Result, error) { return fn() }
}

// IDs lists the scenario identifiers in canonical order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, s := range registry {
		ids[i] = s.id
	}
	return ids
}

// Title reports the registered title for id ("" when unknown).
func Title(id string) string {
	for _, s := range registry {
		if s.id == id {
			return s.title
		}
	}
	return ""
}

// Run executes the scenario with the given id, recording it under rec
// (nil: detached).
func Run(id string, rec *probe.Recorder) (*Result, error) {
	for _, s := range registry {
		if s.id != id {
			continue
		}
		res, err := s.run(rec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		res.ID, res.Title = s.id, s.title
		return res, nil
	}
	return nil, fmt.Errorf("unknown scenario %q (have %s)", id, strings.Join(IDs(), ", "))
}

// put copies a point's metrics into a scenario's, keyed name/label.
func put(dst map[string]float64, label string, src map[string]float64) {
	for k, v := range src {
		dst[k+"/"+label] = v
	}
}

// speedup renders base/x as a ratio column.
func speedup(base, x time.Duration) string {
	return fmt.Sprintf("%.2fx", float64(base)/float64(x))
}

// requests totals device requests across disks.
func requests(disks []*device.Disk) int64 {
	var n int64
	for _, d := range disks {
		n += d.Stats().Requests()
	}
	return n
}

// machine builds a virtual-time machine of drives drives (zero: 4) of
// the given geometry (zero: the 1989 drive) whose queues follow pf, with
// one volume over them and rec (nil: detached) attached.
func machine(drives int, geom device.Geometry, pf pario.Profile, rec *probe.Recorder) (*pario.Machine, error) {
	if drives == 0 {
		drives = 4
	}
	e := sim.NewEngine()
	disks := make([]*device.Disk, drives)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name: fmt.Sprintf("d%d", i), Geometry: geom, Engine: e,
			Sched: pf.Sched, MergeQueued: pf.MergeQueued,
		})
	}
	vol, err := pario.NewVolume(disks)
	if err != nil {
		return nil, err
	}
	m := &pario.Machine{Engine: e, Disks: disks, Volume: vol}
	m.SetProbe(rec)
	return m, nil
}

// geom1989 is the drive layout used by all experiments: 4 KiB blocks,
// 64 per cylinder, 900 cylinders.
func geom1989() device.Geometry { return device.DefaultGeometry1989() }

// array builds n engine-attached 1989 drives and a volume over them.
func array(e *sim.Engine, n int, sched device.Sched) ([]*device.Disk, *pfs.Volume, error) {
	disks := make([]*device.Disk, n)
	for i := range disks {
		disks[i] = device.New(device.Config{
			Name:     fmt.Sprintf("d%d", i),
			Geometry: geom1989(),
			Engine:   e,
			Sched:    sched,
		})
	}
	store, err := blockio.NewDirect(disks)
	if err != nil {
		return nil, nil, err
	}
	return disks, pfs.NewVolume(store), nil
}

// runMain runs fn as the single root process of a fresh engine and
// returns the total virtual time.
func runMain(e *sim.Engine, fn func(p *sim.Proc) error) (time.Duration, error) {
	var ferr error
	e.Go("main", func(p *sim.Proc) {
		ferr = fn(p)
	})
	if err := e.Run(); err != nil {
		return 0, err
	}
	return e.Now(), ferr
}

// sumSeeks totals seek counts across disks.
func sumSeeks(disks []*device.Disk) (count, cyls int64) {
	for _, d := range disks {
		st := d.Stats()
		count += st.Seeks
		cyls += st.SeekCyls
	}
	return count, cyls
}
