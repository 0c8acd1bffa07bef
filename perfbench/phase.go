package main

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/maphash"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	pario "repro"
)

// rep is one repetition of a workload: set-up, then the measured phase.
type rep struct {
	setup    time.Duration // host wall of everything before the measured phase
	host     hostSpan      // host clocks over the measured phase
	bytes    int64         // payload bytes written plus bytes read and checked
	written  int64         // payload bytes written
	start    time.Duration // modeled start of the measured phase
	makespan time.Duration // modeled duration of the measured phase
	lat      []time.Duration
	failed   int
	digest   uint64 // bytes read back and modeled latencies, for identity checks
	layer    map[string]float64
	profile  []byte        // CPU profile of the measured phase (traced reps only)
	calib    time.Duration // calibration time around the rep (host.go)
}

// scaled converts one of the rep's raw host durations to reference-host
// seconds.
func (r *rep) scaled(d time.Duration) float64 {
	return d.Seconds() * float64(calibRef) / float64(r.calib)
}

// phase marks the boundaries of one rep's measured phase and collects
// its per-layer counters. begin and end are called by one simulated
// process at a point where the whole machine is quiescent (after a
// barrier or a join). With a recorder attached the phase also takes a
// CPU profile and reads the recorder's counters and spans.
type phase struct {
	r          *rep
	rec        *pario.Recorder
	disks      []*pario.Disk
	setupStart time.Time
	startHost  hostMark
	ctr0       map[string]int64
	span0      int
	prof       bytes.Buffer
	profiling  bool
}

// recorderCounters are the flight-recorder counters the benchmark
// reads; each is reported as its measured-phase delta.
var recorderCounters = []string{"sim.dispatches", "sim.spawns", "blockio.batches", "blockio.runs", "blockio.bytes"}

func newPhase(rec *pario.Recorder) *phase {
	return &phase{r: &rep{layer: map[string]float64{}}, rec: rec, setupStart: time.Now()}
}

func (ph *phase) traced() bool { return ph.rec != nil }

func (ph *phase) begin(now time.Duration) {
	ph.r.setup = time.Since(ph.setupStart)
	for _, d := range ph.disks {
		d.ResetStats()
	}
	if ph.traced() {
		ph.ctr0 = map[string]int64{}
		for _, name := range recorderCounters {
			ph.ctr0[name] = ph.rec.Metrics().Counter(name).Value()
		}
		ph.span0 = len(ph.rec.Spans())
		ph.profiling = pprof.StartCPUProfile(&ph.prof) == nil
	}
	ph.r.start = now
	ph.startHost = markHost()
}

func (ph *phase) end(now time.Duration) {
	ph.r.host = markHost().since(ph.startHost)
	ph.r.makespan = now - ph.r.start
	if !ph.traced() {
		return
	}
	if ph.profiling {
		pprof.StopCPUProfile()
		ph.r.profile = ph.prof.Bytes()
	}
	L := ph.r.layer
	for _, name := range recorderCounters {
		L[name] = float64(ph.rec.Metrics().Counter(name).Value() - ph.ctr0[name])
	}
	if L["blockio.runs"] > 0 {
		L["blockio.bytes_per_run"] = L["blockio.bytes"] / L["blockio.runs"]
	}
	delete(L, "blockio.bytes")
	spans := ph.rec.Spans()[ph.span0:]
	L["probe.spans"] = float64(len(spans))
	tracks := ph.rec.Tracks()
	for _, s := range spans {
		d := (s.End - s.Start).Seconds()
		switch {
		case s.Cat == "mpp" && s.Name == "pool.wait":
			L["mpp.pool_wait_s"] += d
		case s.Cat == "ioserver" && (s.Name == "wait" || s.Name == "service"):
			lane := strings.TrimPrefix(tracks[s.Track-1], "lane/")
			L["ioserver."+lane+"."+s.Name+"_s"] += d
		}
	}
}

// diskLayer reports the device layer's measured-phase counters, summed
// over drives (stats were reset at the phase start).
func (ph *phase) diskLayer() {
	var requests, written, seeks, merged int64
	var busy, latency time.Duration
	peak := 0
	for _, d := range ph.disks {
		s := d.Stats()
		requests += s.Requests()
		written += s.BytesWritten
		seeks += s.Seeks
		merged += s.Merged
		busy += s.BusyTime
		latency += s.LatencySum
		peak = max(peak, s.QueuePeak)
	}
	L := ph.r.layer
	L["device.requests"] = float64(requests)
	L["device.seeks"] = float64(seeks)
	L["device.merged"] = float64(merged)
	L["device.busy_s"] = busy.Seconds()
	L["device.queue_wait_s"] = (latency - busy).Seconds()
	L["device.queue_peak"] = float64(peak)
	if ph.r.makespan > 0 {
		L["device.util"] = busy.Seconds() / (float64(len(ph.disks)) * ph.r.makespan.Seconds())
	}
	if ph.r.written > 0 {
		L["device.write_amp"] = float64(written) / float64(ph.r.written)
	}
}

// colCalls accumulates one collective handle's per-call results, read
// by rank 0 after each of its calls in the measured phase. When traced
// it also times rank 0's call on the host: under the engine's strict
// alternation that window spans the whole group's work for the call.
type colCalls struct {
	traced  bool
	ops     bool // the handle's calls are the workload's ops: its plan cache counts
	calls   int
	st      pario.ExchangeStats
	hostMS  []float64
	allocs  []float64
	t0      time.Time
	m0      uint64
	cache0  pario.CollectiveCacheStats
	started bool
}

func (cc *colCalls) start(c *pario.Collective) {
	if !cc.started {
		cc.started, cc.cache0 = true, c.PlanCacheStats()
	}
	if cc.traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cc.m0, cc.t0 = ms.Mallocs, time.Now()
	}
}

func (cc *colCalls) done(c *pario.Collective) {
	if cc.traced {
		wall := time.Since(cc.t0)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cc.hostMS = append(cc.hostMS, float64(wall)/1e6)
		cc.allocs = append(cc.allocs, float64(ms.Mallocs-cc.m0))
	}
	st := c.LastStats()
	cc.calls++
	cc.st.BytesMoved += st.BytesMoved
	cc.st.BytesLocal += st.BytesLocal
	cc.st.ExchangeTime += st.ExchangeTime
	cc.st.AccessTime += st.AccessTime
	cc.st.Overlap += st.Overlap
}

// report folds the accumulated calls into the rep's layer metrics
// (several handles add up).
func (cc *colCalls) report(L map[string]float64, c *pario.Collective) {
	L["collective.calls"] += float64(cc.calls)
	L["collective.bytes_moved"] += float64(cc.st.BytesMoved)
	L["collective.bytes_local"] += float64(cc.st.BytesLocal)
	L["collective.exchange_s"] += cc.st.ExchangeTime.Seconds()
	L["collective.access_s"] += cc.st.AccessTime.Seconds()
	L["collective.overlap_s"] += cc.st.Overlap.Seconds()
	if cc.ops {
		cs := c.PlanCacheStats()
		L["collective.plan_hits"] += float64(cs.Hits - cc.cache0.Hits)
		L["collective.plan_misses"] += float64(cs.Misses - cc.cache0.Misses)
	}
}

// finishCollective turns the plan-cache counters of the handles whose
// calls are the workload's ops into the hit ratio and folds the host call windows of every handle into medians.
func finishCollective(L map[string]float64, ccs ...*colCalls) {
	if n := L["collective.plan_hits"] + L["collective.plan_misses"]; n > 0 {
		L["collective.plan_hit_ratio"] = L["collective.plan_hits"] / n
	}
	delete(L, "collective.plan_hits")
	delete(L, "collective.plan_misses")
	var ms, allocs []float64
	for _, cc := range ccs {
		ms = append(ms, cc.hostMS...)
		allocs = append(allocs, cc.allocs...)
	}
	if len(ms) > 0 {
		L["collective.call_host_ms_p50"] = median(ms)
		L["collective.call_allocs_p50"] = median(allocs)
	}
}

// digestSeed keys the identity digests; digests are only compared
// within one process.
var digestSeed = maphash.MakeSeed()

// newDigest returns a digest for a rep's bytes read back and modeled
// latencies.
func newDigest() *maphash.Hash {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	return &h
}

// hashDur folds a modeled duration into an identity digest.
func hashDur(h hash.Hash64, d time.Duration) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(d))
	h.Write(b[:])
}
