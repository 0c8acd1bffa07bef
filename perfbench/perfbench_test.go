package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	pario "repro"
)

// Seeds the smoke tests run: the baseline seed and a held-out one.
var testSeeds = []uint64{1, 7}

// TestWorkloadsToy runs every workload at its toy size, untraced and
// traced, on the baseline and the held-out seed: every check must pass,
// tracing must change no modeled result, and every metric must be
// reported.
func TestWorkloadsToy(t *testing.T) {
	for name, run := range workloads {
		for _, seed := range testSeeds {
			res, err := measure(run, seed, true, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checkResult(t, name, seed, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s seed %d: %s = %v, want > 0", name, seed, m.name, res.Metrics[m.name].Value)
				}
			}

			// Long enough for the CPU profile to take samples.
			tr, err := measureTraced(run, seed, true, 2*time.Second)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", name, seed, err)
			}
			checkResult(t, name, seed, tr, perLayer)
			checkPredictions(t, name, func(k string) float64 { return tr.Metrics[k].Value })
		}
	}
}

// TestLayerTotals checks the traced figures against totals the library
// or the runtime reports by another path. The CPU profile's sampled
// time must match the process CPU of the measured phases (rusage), so
// host.self_s.* account for the CPU they split. The device layer's
// Disk.Stats busy time must equal the recorder's device service spans,
// and its queue wait (LatencySum − BusyTime) the recorder's queue-wait
// spans; a merged request's members all wait out its one service, so
// with merging the Stats figure exceeds the spans.
func TestLayerTotals(t *testing.T) {
	for name, run := range workloads {
		var cpu, sampled time.Duration
		for reps := 0; reps < 3 || (cpu < time.Second && reps < 200); reps++ {
			rec := pario.NewRecorder()
			r, err := run(1, true, rec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := readProfile(r.profile)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cpu += r.host.cpu
			for _, s := range p.samples {
				sampled += time.Duration(s.cpu)
			}

			var busy, wait time.Duration
			for _, s := range rec.Spans() {
				if s.Cat != "device" || s.Start < r.start || s.End > r.start+r.makespan {
					continue
				}
				if s.Name == "wait" {
					wait += s.End - s.Start
				} else {
					busy += s.End - s.Start
				}
			}
			L := r.layer
			if got := L["device.busy_s"]; got <= 0 || math.Abs(got-busy.Seconds()) > 1e-9*got {
				t.Fatalf("%s: Disk.Stats busy %vs, recorder service spans %v", name, got, busy)
			}
			got := L["device.queue_wait_s"]
			if L["device.merged"] == 0 && math.Abs(got-wait.Seconds()) > 1e-9*got {
				t.Fatalf("%s: Disk.Stats queue wait %vs, recorder wait spans %v", name, got, wait)
			}
			if L["device.merged"] > 0 && got <= wait.Seconds() {
				t.Fatalf("%s: Disk.Stats queue wait %vs with %v merged requests, recorder wait spans %v", name, got, L["device.merged"], wait)
			}
		}
		t.Logf("%s: profiled %v of %v CPU (%.3f)", name, sampled, cpu, float64(sampled)/float64(cpu))
		if f := float64(sampled) / float64(cpu); f < 0.7 || f > 1.25 {
			t.Errorf("%s: the CPU profile sampled %v of the measured phases' %v CPU", name, sampled, cpu)
		}
	}
}

func checkResult(t *testing.T, name string, seed uint64, res *result, want []struct{ name, unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s seed %d: correct=%v failed=%d attempted=%d", name, seed, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s seed %d: %d metrics, want %d", name, seed, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s seed %d: metric %s = %+v", name, seed, m.name, got)
		}
	}
}

// checkPredictions asserts which layers each workload exercises.
func checkPredictions(t *testing.T, name string, L func(string) float64) {
	t.Helper()
	active := map[string]bool{
		"collective.calls":         name != "paper-stream",
		"mpp.msgs":                 name != "paper-stream",
		"ioserver.query.completed": name == "mixed-service",
		"ioserver.ckpt.completed":  name == "mixed-service",
		"core.records":             name == "paper-stream",
		"sim.dispatches":           true,
		"device.requests":          true,
	}
	for k, on := range active {
		if (L(k) > 0) != on {
			t.Errorf("%s: %s = %v, want active=%v", name, k, L(k), on)
		}
	}
	switch name {
	case "ckpt-replay":
		if L("collective.plan_hit_ratio") < 0.85 {
			t.Errorf("ckpt-replay: plan hit ratio %v, want ≈1", L("collective.plan_hit_ratio"))
		}
	case "mixed-service":
		if r := L("collective.plan_hit_ratio"); r <= 0 || r > 0.7 {
			t.Errorf("mixed-service: plan hit ratio %v, want low", r)
		}
		if L("device.write_amp") <= 1 {
			t.Errorf("mixed-service: parity write amplification %v, want > 1", L("device.write_amp"))
		}
	case "paper-stream":
		if L("host.self_s.collective") != 0 || L("host.self_s.mpp") != 0 {
			t.Errorf("paper-stream: collective/mpp host time %v/%v, want 0", L("host.self_s.collective"), L("host.self_s.mpp"))
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/collective.(*Collective).packRankMsgs", "repro/internal/mpp.Run.func1"}, "collective"},
		{[]string{"main.(*payloadPool).fill", "main.runCkpt.func1", "repro/internal/mpp.Run.func1"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"repro/internal/workload.CheckRecord", "main.runStream.func3"}, "workload"},
		{[]string{"repro/internal/volio.Save"}, "other"},
		{[]string{"runtime/pprof.profileWriter"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", strings.Join(c.stack, " < "), got, c.want)
		}
	}
}
