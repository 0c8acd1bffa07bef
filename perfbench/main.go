// Command perfbench is the repository's two-clock benchmark. It runs one
// workload through the library's public API, checks every byte it
// reads back, and prints one JSON result line.
//
//	perfbench -workload ckpt-replay|paper-stream|mixed-service -seed N -seconds S -trace 0|1
//
// A run repeats the workload (set-up, then the measured phase) until
// -seconds have passed, at least minReps times, and reports medians
// over the repetitions. With -trace 0 it prints the end-to-end metrics;
// with -trace 1 it first repeats untraced for half the time, then with
// the flight recorder and a CPU profile attached, checks that tracing
// changed no modeled result, and prints the per-layer metrics. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	pario "repro"
)

// workloadFunc runs one repetition of a workload. toy selects the small
// size the smoke tests use; rec, when non-nil, is attached through the
// library's SetProbe hooks.
type workloadFunc func(seed uint64, toy bool, rec *pario.Recorder) (*rep, error)

var workloads = map[string]workloadFunc{
	"ckpt-replay":   runCkpt,
	"paper-stream":  runStream,
	"mixed-service": runMixed,
}

// minReps is the fewest repetitions a run makes, so set-up and host
// metrics are medians of at least three.
const minReps = 3

// gomaxprocs pins the scheduler to one P: with two, runs on the
// two-vCPU reference host split into two clusters of host wall time.
// The GC's mark workers share that P with the workload.
const gomaxprocs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_mb_per_s", "MB/s"},
	{"host_cpu_s", "s"},
	{"host_alloc_mb", "MB"},
	{"host_allocs", "count"},
	{"host_peak_rss_mb", "MB"},
	{"modeled_mb_per_s", "MB/s"},
	{"modeled_op_p50_ms", "ms"},
	{"modeled_op_p99_ms", "ms"},
	{"ops", "count"},
}

// hostLayers are the buckets CPU-profile samples are attributed to.
var hostLayers = []string{
	"sim", "sched", "mpp", "collective", "blockio", "device", "ioserver", "stripe",
	"core", "buffer", "pfs", "records", "workload", "probe", "bench", "gc", "other",
}

// perLayer lists the per-layer metrics and their units. Every traced
// run reports all of them; a layer a workload does not use reads 0.
var perLayer = func() []struct{ name, unit string } {
	ls := []struct{ name, unit string }{
		{"sim.dispatches", "count"},
		{"sim.spawns", "count"},
		{"sim.host_ns_per_dispatch", "ns"},
		{"mpp.msgs", "count"},
		{"mpp.bytes", "B"},
		{"mpp.pool_wait_s", "s"},
		{"collective.calls", "count"},
		{"collective.call_host_ms_p50", "ms"},
		{"collective.call_allocs_p50", "count"},
		{"collective.plan_hit_ratio", "ratio"},
		{"collective.bytes_moved", "B"},
		{"collective.bytes_local", "B"},
		{"collective.exchange_s", "s"},
		{"collective.access_s", "s"},
		{"collective.overlap_s", "s"},
		{"blockio.batches", "count"},
		{"blockio.runs", "count"},
		{"blockio.bytes_per_run", "B"},
		{"device.requests", "count"},
		{"device.seeks", "count"},
		{"device.merged", "count"},
		{"device.busy_s", "s"},
		{"device.queue_wait_s", "s"},
		{"device.util", "ratio"},
		{"device.queue_peak", "count"},
		{"device.write_amp", "ratio"},
	}
	for _, lane := range []string{"ckpt", "query"} {
		ls = append(ls,
			struct{ name, unit string }{"ioserver." + lane + ".completed", "count"},
			struct{ name, unit string }{"ioserver." + lane + ".wait_s", "s"},
			struct{ name, unit string }{"ioserver." + lane + ".service_s", "s"},
			struct{ name, unit string }{"ioserver." + lane + ".p99_ms", "ms"},
		)
	}
	ls = append(ls, []struct{ name, unit string }{
		{"core.records", "count"},
		{"buffer.hit_ratio", "ratio"},
		{"buffer.evictions", "count"},
		{"buffer.writebacks", "count"},
		{"host.cpu_s", "s"},
		{"host.raw_cpu_s", "s"},
		{"host.calib_ms", "ms"},
		{"host.gc_cycles", "count"},
		{"probe.overhead_frac", "ratio"},
		{"probe.spans", "count"},
		{"gen.late_ms_max", "ms"},
	}...)
	for _, l := range hostLayers {
		ls = append(ls, struct{ name, unit string }{"host.self_s." + l, "s"})
	}
	return ls
}()

func main() {
	name := flag.String("workload", "", "ckpt-replay, paper-stream or mixed-service")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: attach the flight recorder and a CPU profile, print per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = measureTraced(run, *seed, false, budget)
	} else {
		res, err = measure(run, *seed, false, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// repeat runs the workload until budget has passed and at least n
// repetitions are done, collecting a fresh heap before each.
func repeat(run workloadFunc, seed uint64, toy bool, budget time.Duration, n int, traced bool) ([]*rep, error) {
	var reps []*rep
	deadline := time.Now().Add(budget)
	for len(reps) < n || time.Now().Before(deadline) {
		runtime.GC()
		var rec *pario.Recorder
		if traced {
			rec = pario.NewRecorder()
		}
		mem, rt := calibrate()
		r, err := run(seed, toy, rec)
		if err != nil {
			return nil, err
		}
		// Collect the rep's garbage first, so the calibration after the
		// rep does not pay for sweeping it and stays independent of how
		// much the library allocated.
		runtime.GC()
		mem2, rt2 := calibrate()
		r.calib = time.Duration(median(append(mem, mem2...)) + median(append(rt, rt2...)))
		reps = append(reps, r)
	}
	return reps, nil
}

// modeled is the part of a rep's result that only virtual time and the
// byte images determine; it must repeat exactly.
type modeled struct {
	mbPerS, p50, p99 float64
	ops, failed      int
	digest           uint64
}

func modeledOf(r *rep) modeled {
	return modeled{
		mbPerS: float64(r.bytes) / r.makespan.Seconds() / 1e6,
		p50:    durQuantileMS(r.lat, 0.50),
		p99:    durQuantileMS(r.lat, 0.99),
		ops:    len(r.lat),
		failed: r.failed,
		digest: r.digest,
	}
}

// tally checks that every rep reproduced the first one's modeled result
// and counts ops and failures over all reps.
func tally(reps []*rep) (correct bool, attempted, failed int) {
	correct = true
	want := modeledOf(reps[0])
	for _, r := range reps {
		if modeledOf(r) != want {
			correct = false
		}
		attempted += len(r.lat)
		failed += r.failed
	}
	return correct && failed == 0, attempted, failed
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

func hostCPU(r *rep) float64 { return r.scaled(r.host.cpu) }

func measure(run workloadFunc, seed uint64, toy bool, budget time.Duration) (*result, error) {
	reps, err := repeat(run, seed, toy, budget, minReps, false)
	if err != nil {
		return nil, err
	}
	correct, attempted, failed := tally(reps)
	md := modeledOf(reps[0])
	v := map[string]float64{
		"setup_s":           medianOf(reps, func(r *rep) float64 { return r.scaled(r.setup) }),
		"host_mb_per_s":     medianOf(reps, func(r *rep) float64 { return float64(r.bytes) / 1e6 / r.scaled(r.host.wall) }),
		"host_cpu_s":        medianOf(reps, hostCPU),
		"host_alloc_mb":     medianOf(reps, func(r *rep) float64 { return float64(r.host.alloc) / 1e6 }),
		"host_allocs":       medianOf(reps, func(r *rep) float64 { return float64(r.host.mallocs) }),
		"host_peak_rss_mb":  peakRSSMB(),
		"modeled_mb_per_s":  md.mbPerS,
		"modeled_op_p50_ms": md.p50,
		"modeled_op_p99_ms": md.p99,
		"ops":               float64(md.ops),
	}
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return res, nil
}

// measureTraced repeats the workload untraced, then traced, checks that
// tracing changed no modeled result, and reports the per-layer metrics.
func measureTraced(run workloadFunc, seed uint64, toy bool, budget time.Duration) (*result, error) {
	plain, err := repeat(run, seed, toy, budget/2, 2, false)
	if err != nil {
		return nil, err
	}
	traced, err := repeat(run, seed, toy, budget/2, 1, true)
	if err != nil {
		return nil, err
	}
	correct, attempted, failed := tally(append(append([]*rep(nil), plain...), traced...))

	v := map[string]float64{}
	for name := range traced[0].layer {
		v[name] = medianOf(traced, func(r *rep) float64 { return r.layer[name] })
	}
	plainCPU, tracedCPU := medianOf(plain, hostCPU), medianOf(traced, hostCPU)
	if d := v["sim.dispatches"]; d > 0 {
		v["sim.host_ns_per_dispatch"] = medianOf(plain, func(r *rep) float64 { return r.scaled(r.host.wall) }) * 1e9 / d
	}
	v["probe.overhead_frac"] = tracedCPU/plainCPU - 1
	v["host.gc_cycles"] = medianOf(plain, func(r *rep) float64 { return float64(r.host.gcs) })
	v["host.raw_cpu_s"] = medianOf(plain, func(r *rep) float64 { return r.host.cpu.Seconds() })
	v["host.calib_ms"] = medianOf(plain, func(r *rep) float64 { return float64(r.calib) / 1e6 })
	v["host.cpu_s"] = tracedCPU
	counts := map[string]int64{}
	var total int64
	for _, r := range traced {
		c, err := attributeProfile(r.profile)
		if err != nil {
			return nil, err
		}
		for l, n := range c {
			counts[l] += n
			total += n
		}
	}
	for _, l := range hostLayers {
		if total > 0 {
			v["host.self_s."+l] = float64(counts[l]) / float64(total) * tracedCPU
		}
	}
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return res, nil
}
