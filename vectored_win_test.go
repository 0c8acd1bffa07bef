// Vectored-I/O acceptance: a sequential scan of a unit-1 declustered
// file — the layout the extent path cannot coalesce, because physically
// adjacent blocks are logically strided — must cut device requests and
// improve modeled throughput once the scan goes through the
// scatter/gather descriptor. These are the ISSUE 2 acceptance numbers,
// enforced as a test so they cannot regress.
package pario_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// TestVectoredCoalescingWin enforces the acceptance criteria on a
// sequential read of a unit-1 declustered file (4096 blocks, 1024 per
// device, 4 devices): the vectored path must beat the per-block path by
// ≥4× in device requests and ≥1.5× in modeled throughput, and already
// at ExtentBlocks 8 — one gather run per device per extent — it must
// halve the request count. (With 4 devices an extent of E blocks bounds
// the reduction at E/4, so the ≥4× bar is enforced at extent 32; extent
// 8's exact bound of 2× is enforced alongside it.) Each scan checks
// every record it reads back.
func TestVectoredCoalescingWin(t *testing.T) {
	perBlock := runPoint(t, experiments.VectoredScan(1), nil)
	ext8 := runPoint(t, experiments.VectoredScan(8), nil)
	ext32 := runPoint(t, experiments.VectoredScan(32), nil)
	if perBlock["requests"] == 0 || ext8["requests"] == 0 || ext32["requests"] == 0 {
		t.Fatalf("no requests measured: %v %v %v", perBlock, ext8, ext32)
	}
	req8 := perBlock["requests"] / ext8["requests"]
	req32 := perBlock["requests"] / ext32["requests"]
	tp8 := perBlock["elapsed_ns"] / ext8["elapsed_ns"]
	tp32 := perBlock["elapsed_ns"] / ext32["elapsed_ns"]
	t.Logf("requests %v -> %v (ext8, %.1fx) -> %v (ext32, %.1fx)",
		perBlock["requests"], ext8["requests"], req8, ext32["requests"], req32)
	t.Logf("elapsed %v -> %v (ext8, throughput %.2fx) -> %v (ext32, %.2fx)",
		elapsed(perBlock), elapsed(ext8), tp8, elapsed(ext32), tp32)
	if req8 < 1.9 {
		t.Errorf("extent-8 request reduction %.2fx < 1.9x", req8)
	}
	if tp8 < 1.5 {
		t.Errorf("extent-8 throughput improvement %.2fx < 1.5x", tp8)
	}
	if req32 < 4 {
		t.Errorf("extent-32 request reduction %.2fx < 4x", req32)
	}
	if tp32 < 1.5 {
		t.Errorf("extent-32 throughput improvement %.2fx < 1.5x", tp32)
	}
}

// BenchmarkVectoredScan tracks the declustered-scan trajectory: modeled
// MB/s and device requests for the per-block and vectored paths.
func BenchmarkVectoredScan(b *testing.B) {
	for _, extent := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("extent%d", extent), func(b *testing.B) {
			var m map[string]float64
			for i := 0; i < b.N; i++ {
				m = runPoint(b, experiments.VectoredScan(extent), nil)
			}
			b.ReportMetric(vmbps(m), "vMB/s")
			b.ReportMetric(m["requests"], "requests")
		})
	}
}
