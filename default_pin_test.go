// Default-model pinning: the free-link, round-robin configuration must
// stay bit-identical as the interconnect and placement models grow.
// These golden durations were recorded when the shared-link model and
// locality-aware domains landed (ISSUE 4); any future change that
// perturbs default timings — a stray charge on the free link, a changed
// exchange order, a different domain assignment — fails here before it
// can silently shift the paper's modeled shapes.
package pario_test

import (
	"testing"
	"time"

	pario "repro"
	"repro/internal/experiments"
)

// TestDefaultModelPinned asserts exact golden elapsed times for the
// default configurations of the collective scenario's strided
// checkpoint (8 ranks, 1024 records, unit-1 declustered over 4 default
// drives): the free link (nothing configured — the paper's model) and
// the 10 µs / 100 MB/s per-process link, each for the independent and
// collective paths. Bit-identical means equal, not approximately equal.
// A live flight recorder is attached: the golden times must hold with
// tracing on, since recording reads the virtual clock only.
func TestDefaultModelPinned(t *testing.T) {
	cases := []struct {
		name        string
		independent bool
		freeLink    bool
		want        time.Duration
	}{
		{"independent/free-link", true, true, 2988389208 * time.Nanosecond},
		{"collective/free-link", false, true, 746086164 * time.Nanosecond},
		{"independent/per-process-link", true, false, 2988389208 * time.Nanosecond},
		{"collective/per-process-link", false, false, 765833008 * time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := experiments.CollectiveCheckpoint(tc.independent)
			if tc.freeLink {
				c.Profile = pario.Profile{}
			}
			got := elapsed(runPoint(t, c, pario.NewRecorder()))
			if got != tc.want {
				t.Errorf("elapsed = %v (%d ns), want pinned %v — default-model timing drifted",
					got, got.Nanoseconds(), tc.want)
			}
		})
	}
}
