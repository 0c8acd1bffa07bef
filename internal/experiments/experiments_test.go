package experiments

import (
	"strings"
	"testing"
)

func TestIDsOrderAndTitles(t *testing.T) {
	ids := IDs()
	want := []string{"f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
		"seek", "service", "stripe", "extent", "noncontig", "collective", "strategy",
		"contended", "pipeline", "replay", "profile", "multijob", "scale"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Fatalf("no title for %s", id)
		}
	}
	if _, err := Run("nope", nil); err == nil || !strings.Contains(err.Error(), "e11, seek") {
		t.Fatalf("unknown id: err = %v, want one listing every id", err)
	}
}

// TestCorruptedWritesFail damages every payload the scenarios stamp and
// requires each scenario that writes to report the damage as an error.
func TestCorruptedWritesFail(t *testing.T) {
	// These write nothing through stamp: the device-model tables read
	// never-written blocks or only compute, E5 reads raw drives, and
	// E8's reliability scenarios write and check their own patterns.
	unstamped := map[string]bool{"seek": true, "service": true, "stripe": true, "e5": true, "e8": true}
	defer func() { corrupt = nil }()
	for _, id := range IDs() {
		stamped := 0
		corrupt = func(buf []byte) {
			stamped++
			buf[len(buf)-1] ^= 0x5a
		}
		_, err := Run(id, nil)
		switch {
		case unstamped[id] && (stamped > 0 || err != nil):
			t.Errorf("%s: listed as writing nothing, but stamped %d payloads (err %v)", id, stamped, err)
		case !unstamped[id] && stamped == 0:
			t.Errorf("%s: wrote no stamped payload", id)
		case !unstamped[id] && err == nil:
			t.Errorf("%s: %d corrupted payloads went undetected", id, stamped)
		}
	}
}

// runOK runs an experiment and sanity-checks the result envelope.
func runOK(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, nil)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || len(res.Tables) == 0 {
		t.Fatalf("%s: malformed result", id)
	}
	if !strings.Contains(res.String(), res.ID) {
		t.Fatalf("%s: String() missing id", id)
	}
	return res
}

func TestFigure1AllPatternsValid(t *testing.T) {
	res := runOK(t, "f1")
	if res.Tables[0].Rows() != 4 {
		t.Fatalf("Figure 1 rows = %d", res.Tables[0].Rows())
	}
	if len(res.Metrics) != 4 {
		t.Fatalf("only %d of 4 patterns validated: %v", len(res.Metrics), res.Metrics)
	}
}

func TestE1StripingScales(t *testing.T) {
	res := runOK(t, "e1")
	// Shape: bandwidth grows with device count; 16 devices at least 6x
	// one device.
	if res.Metrics["read_speedup_d2"] < 1.5 {
		t.Fatalf("2-device speedup %v", res.Metrics["read_speedup_d2"])
	}
	if res.Metrics["read_speedup_d16"] < 6 {
		t.Fatalf("16-device speedup %v", res.Metrics["read_speedup_d16"])
	}
	if res.Metrics["read_speedup_d16"] <= res.Metrics["read_speedup_d4"] {
		t.Fatal("speedup not monotone")
	}
}

func TestE2EarlyReleaseWins(t *testing.T) {
	res := runOK(t, "e2")
	// At zero compute the shared pointer serializes transfers: early
	// release must win clearly; at heavy compute both converge.
	if res.Metrics["speedup_c0ms"] < 1.5 {
		t.Fatalf("early release speedup at c=0 is %v", res.Metrics["speedup_c0ms"])
	}
	if res.Metrics["speedup_c40ms"] > res.Metrics["speedup_c0ms"] {
		t.Fatal("speedup should shrink as compute dominates")
	}
	// E2b: block claims must be 4x fewer than record claims.
	if res.Metrics["claims_block"]*4 != res.Metrics["claims_record"] {
		t.Fatalf("claims: block %v, record %v", res.Metrics["claims_block"], res.Metrics["claims_record"])
	}
}

func TestE3PrivateDevicesDecouple(t *testing.T) {
	res := runOK(t, "e3")
	if res.Metrics["fast_proc_slowdown"] < 1.5 {
		t.Fatalf("sharing slowed the fast process only %vx", res.Metrics["fast_proc_slowdown"])
	}
}

func TestE4InterferenceAndPacking(t *testing.T) {
	res := runOK(t, "e4")
	// Throughput must degrade as devices shrink.
	if res.Metrics["mbps_d16_contiguous"] <= res.Metrics["mbps_d1_contiguous"] {
		t.Fatal("16 devices not faster than 1")
	}
	// Interleaved packing must cut seek travel when devices are shared.
	if res.Metrics["seekcyls_d4_interleaved"] >= res.Metrics["seekcyls_d4_contiguous"] {
		t.Fatalf("interleaved packing travel %v !< contiguous %v",
			res.Metrics["seekcyls_d4_interleaved"], res.Metrics["seekcyls_d4_contiguous"])
	}
}

func TestE5DeclusteringHelpsUnderSkew(t *testing.T) {
	res := runOK(t, "e5")
	// Livny's claim: under non-uniform access, declustering beats whole
	// blocks. (Under uniform access whole blocks may win — that is the
	// trade-off the literature reports.)
	for _, devs := range []string{"4", "8"} {
		whole := res.Metrics["s_d"+devs+"_zipf(2.0)_whole"]
		decl := res.Metrics["s_d"+devs+"_zipf(2.0)_declustered"]
		if decl >= whole {
			t.Fatalf("d=%s: declustered %vs !< whole %vs under skew", devs, decl, whole)
		}
	}
}

func TestE6BufferingOverlap(t *testing.T) {
	res := runOK(t, "e6")
	unbuf := res.Metrics["read, unbuffered"]
	double := res.Metrics["read, double buffer"]
	if double >= unbuf {
		t.Fatalf("double buffering %v !< unbuffered %v", double, unbuf)
	}
	wsync := res.Metrics["write, synchronous"]
	wdef := res.Metrics["write, deferred x2"]
	if wdef >= wsync {
		t.Fatalf("deferred write %v !< synchronous %v", wdef, wsync)
	}
}

func TestE7GlobalViewShape(t *testing.T) {
	res := runOK(t, "e7")
	striped := res.Metrics["S striped (unit 1)"]
	ps := res.Metrics["PS (partition per device)"]
	isSmall := res.Metrics["IS (8-block groups, buffers < group)"]
	isBig := res.Metrics["IS (8-block groups, buffers >= group)"]
	if ps >= striped/1.5 {
		t.Fatalf("PS global scan %v MB/s should be well under striped %v", ps, striped)
	}
	if isSmall >= isBig {
		t.Fatalf("IS with starved buffers %v !< IS with ample buffers %v", isSmall, isBig)
	}
}

func TestE8ReliabilityNumbers(t *testing.T) {
	res := runOK(t, "e8")
	if res.Metrics["mtbf_h_n10"] != 3000 {
		t.Fatalf("10-device MTBF %v h, want 3000 (paper)", res.Metrics["mtbf_h_n10"])
	}
	if res.Metrics["mtbf_h_n100"] != 300 {
		t.Fatalf("100-device MTBF %v h, want 300 (paper)", res.Metrics["mtbf_h_n100"])
	}
	if res.Metrics["loss_parity_n10"] >= res.Metrics["loss_plain_n10"]/3 {
		t.Fatal("parity did not clearly reduce loss probability")
	}
	if res.Metrics["rollback_hazard"] != 1 || res.Metrics["rollback_fix"] != 1 {
		t.Fatal("rollback consistency demo failed")
	}
	if res.Metrics["parity_rebuild_s"] <= 0 || res.Metrics["mirror_rebuild_s"] <= 0 {
		t.Fatal("rebuild scenarios reported no time")
	}
}

func TestE9CopyBeatsAlternateEventually(t *testing.T) {
	res := runOK(t, "e9")
	// One pass: alternate view avoids the copy, so it should not lose
	// catastrophically; four passes: the converted file must win.
	if res.Metrics["copy_four_s"] >= res.Metrics["alt_four_s"] {
		t.Fatalf("after 4 passes copy-convert %v !< alternate %v",
			res.Metrics["copy_four_s"], res.Metrics["alt_four_s"])
	}
}

func TestE10BoundaryTradeoff(t *testing.T) {
	res := runOK(t, "e10")
	if res.Metrics["overhead_h8"] <= res.Metrics["overhead_h1"] {
		t.Fatal("bigger halo should cost more file overhead")
	}
	// Multi-pass: caching avoids rereading halos, replication rereads
	// them every pass — cache must win by pass 4 for the large halo.
	if res.Metrics["cache_four_h8_s"] >= res.Metrics["rep_four_h8_s"] {
		t.Fatalf("4 passes, halo 8: cache %v !< replicate %v",
			res.Metrics["cache_four_h8_s"], res.Metrics["rep_four_h8_s"])
	}
}

func TestE11FileCountsAndOverhead(t *testing.T) {
	res := runOK(t, "e11")
	if res.Metrics["files_p64_f4"] != 256 {
		t.Fatalf("64 procs x 4 files = %v, want 256", res.Metrics["files_p64_f4"])
	}
	if res.Metrics["prepost_s_p4_f1"] <= 0 {
		t.Fatal("pre/post passes cost no time")
	}
}
