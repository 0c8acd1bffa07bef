// Multi-job QoS acceptance: a victim job sharing the I/O service with a
// bully job must see its latency bounded by the scheduler — fair-share
// below FIFO's p99, strict priority at least 2× below — and the whole
// contended scenario must be bit-for-bit deterministic (ISSUE 7
// acceptance numbers, enforced so they cannot regress).
//
// The scenario is the service-era shape the paper's §2 MIMD machine
// could not express: two independent parallel programs (a 4-rank bully
// checkpointing a 512-block file through six back-to-back nonblocking
// collectives, and a 4-rank victim issuing eight small collectives
// arriving just after) share one I/O server with a single device
// worker. Under FIFO the victim's batches queue behind the bully's
// whole backlog; fair-share interleaves dispatches by served bytes;
// strict priority lets every victim batch overtake the queue.
package pario_test

import (
	"reflect"
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

// mixed runs the bully/victim mix under the given policy (victimPrio
// raises the victim's lane for the Priority runs), with a live recorder
// attached (it must not perturb modeled time or lane stats). The run
// fails unless every lane drained and both files verify.
func mixed(tb testing.TB, pol pario.IOPolicy, victimPrio int) map[string]float64 {
	return runPoint(tb, experiments.MultijobQoS(pol, victimPrio), pario.NewRecorder())
}

// TestMultijobQoS enforces the scheduler wins through the full
// collective path: fair-share bounds the victim's p99 below FIFO's,
// and strict priority cuts it at least 2×.
func TestMultijobQoS(t *testing.T) {
	fifo := mixed(t, pario.IOFIFO, 0)
	fair := mixed(t, pario.IOFairShare, 0)
	prio := mixed(t, pario.IOPriority, 1)
	p99 := func(m map[string]float64) time.Duration { return time.Duration(m["small_p99_ns"]) }
	t.Logf("victim p99: fifo %v fair %v prio %v", p99(fifo), p99(fair), p99(prio))
	if p99(fair) >= p99(fifo) {
		t.Errorf("fair-share did not bound the victim: p99 %v vs FIFO %v", p99(fair), p99(fifo))
	}
	if p99(prio)*2 > p99(fifo) {
		t.Errorf("priority win under 2x: p99 %v vs FIFO %v", p99(prio), p99(fifo))
	}
	// The bully still finishes: QoS reorders the backlog, it does not
	// starve it (its lane drains by the makespan under every policy).
	for _, m := range []map[string]float64{fifo, fair, prio} {
		if m["bulk_completed"] != 12 || m["small_completed"] != 16 {
			t.Errorf("lane accounting off: bully %v victim %v completed", m["bulk_completed"], m["small_completed"])
		}
	}
}

// TestMultijobDeterminism: the same contended mix twice gives
// bit-identical modeled makespans and lane stats (latency percentiles
// included) under every policy.
func TestMultijobDeterminism(t *testing.T) {
	for _, pol := range []pario.IOPolicy{pario.IOFIFO, pario.IOFairShare, pario.IOPriority} {
		a := mixed(t, pol, 1)
		b := mixed(t, pol, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("policy %v: runs differ:\n%v\n%v", pol, a, b)
		}
	}
}

// BenchmarkMultijob is the CI trajectory benchmark (BENCH_multijob.json):
// victim p99 and makespan per policy on the contended mix.
func BenchmarkMultijob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fifo := mixed(b, pario.IOFIFO, 0)
		fair := mixed(b, pario.IOFairShare, 0)
		prio := mixed(b, pario.IOPriority, 1)
		b.ReportMetric(float64(time.Duration(fifo["small_p99_ns"]).Microseconds()), "fifo-victim-p99-µs")
		b.ReportMetric(float64(time.Duration(fair["small_p99_ns"]).Microseconds()), "fair-victim-p99-µs")
		b.ReportMetric(float64(time.Duration(prio["small_p99_ns"]).Microseconds()), "prio-victim-p99-µs")
		b.ReportMetric(float64(time.Duration(fifo["makespan_ns"]).Milliseconds()), "makespan-ms")
	}
}
