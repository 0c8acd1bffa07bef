// Collective-I/O acceptance: an 8-rank strided checkpoint write — every
// rank owns the records ≡ rank (mod 8) of a unit-1 declustered file —
// must cut device requests by ≥4× and improve modeled aggregate
// throughput by ≥2× when issued as a two-phase collective instead of
// independent per-rank vectored writes. These are the ISSUE 3 acceptance
// numbers, enforced so they cannot regress.
//
// The independent baseline is already fully vectored (each rank one
// WriteVec): its problem is not descriptor granularity but visibility —
// each rank's blocks are physically strided by the number of ranks
// sharing its device, so no rank can merge anything, and the drives see
// one request per record. The collective's aggregators each own a
// contiguous file domain and issue one gather request per device.
package pario_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestCollectiveCoalescingWin enforces the acceptance criteria: ≥4×
// fewer device requests and ≥2× modeled aggregate throughput for the
// 8-rank strided collective write versus the same accesses issued
// independently through WriteVec. (DefaultOptions timing for
// non-collective paths is pinned separately by the experiments suite,
// which reproduces the paper's modeled shapes bit-for-bit.) Both runs
// verify the landed bytes.
func TestCollectiveCoalescingWin(t *testing.T) {
	indep := runPoint(t, experiments.CollectiveCheckpoint(true), nil)
	coll := runPoint(t, experiments.CollectiveCheckpoint(false), nil)
	if indep["requests"] == 0 || coll["requests"] == 0 {
		t.Fatalf("no requests measured: %v %v", indep, coll)
	}
	reqRatio := indep["requests"] / coll["requests"]
	tpRatio := indep["elapsed_ns"] / coll["elapsed_ns"]
	t.Logf("requests %v -> %v (%.1fx fewer)", indep["requests"], coll["requests"], reqRatio)
	t.Logf("elapsed %v -> %v (throughput %.2fx: %.2f -> %.2f MB/s)",
		elapsed(indep), elapsed(coll), tpRatio, vmbps(indep), vmbps(coll))
	if reqRatio < 4 {
		t.Errorf("request reduction %.2fx < 4x", reqRatio)
	}
	if tpRatio < 2 {
		t.Errorf("throughput improvement %.2fx < 2x", tpRatio)
	}
}

// BenchmarkCollectiveCheckpoint tracks the checkpoint trajectory:
// modeled MB/s and device requests for the independent and collective
// paths.
func BenchmarkCollectiveCheckpoint(b *testing.B) {
	for _, mode := range []struct {
		name        string
		independent bool
	}{{"independent", true}, {"collective", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var m map[string]float64
			for i := 0; i < b.N; i++ {
				m = runPoint(b, experiments.CollectiveCheckpoint(mode.independent), nil)
			}
			b.ReportMetric(vmbps(m), "vMB/s")
			b.ReportMetric(m["requests"], "requests")
		})
	}
}

// elapsed is a point's modeled elapsed time.
func elapsed(m map[string]float64) time.Duration { return time.Duration(m["elapsed_ns"]) }

// vmbps is a point's modeled throughput: payload bytes over modeled
// elapsed, in MB/s.
func vmbps(m map[string]float64) float64 { return m["bytes"] / 1e6 / elapsed(m).Seconds() }
