// Extent-I/O acceptance: a sequential whole-file read issued through the
// extent path must cut device requests by the coalescing factor and
// improve modeled (virtual-time) throughput. These are the ISSUE 1
// acceptance numbers, enforced as a test so they cannot regress.
package pario_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// TestExtentCoalescingWin enforces the acceptance criteria: on a
// sequential whole-file read of 1024 blocks per device (S organization,
// striped layout, extent 8), device requests drop ≥ 4× versus the
// per-block path and modeled throughput improves ≥ 1.5×. Each scan
// checks every record it reads back.
func TestExtentCoalescingWin(t *testing.T) {
	perBlock := runPoint(t, experiments.ExtentScan(1), nil)
	extent := runPoint(t, experiments.ExtentScan(8), nil)
	if perBlock["requests"] == 0 || extent["requests"] == 0 {
		t.Fatalf("no requests measured: %v %v", perBlock, extent)
	}
	reqRatio := perBlock["requests"] / extent["requests"]
	tpRatio := perBlock["elapsed_ns"] / extent["elapsed_ns"]
	t.Logf("requests %v -> %v (%.1fx), elapsed %v -> %v (throughput %.2fx)",
		perBlock["requests"], extent["requests"], reqRatio, elapsed(perBlock), elapsed(extent), tpRatio)
	if reqRatio < 4 {
		t.Errorf("request reduction %.2fx < 4x", reqRatio)
	}
	if tpRatio < 1.5 {
		t.Errorf("throughput improvement %.2fx < 1.5x", tpRatio)
	}
}

// BenchmarkExtentCoalescing compares 1-block and extent transfers on the
// sequential striped scan, reporting modeled MB/s and device requests so
// the coalescing win lands in the benchmark trajectory.
func BenchmarkExtentCoalescing(b *testing.B) {
	for _, extent := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("extent%d", extent), func(b *testing.B) {
			var m map[string]float64
			for i := 0; i < b.N; i++ {
				m = runPoint(b, experiments.ExtentScan(extent), nil)
			}
			b.ReportMetric(vmbps(m), "vMB/s")
			b.ReportMetric(m["requests"], "requests")
		})
	}
}
