package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestScenarios runs every registered scenario once through the front
// end, checking its header names the registered title and that it
// reports tables and metrics.
func TestScenarios(t *testing.T) {
	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel() // every run builds its own machine
			res, err := runOne(id, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			title := experiments.Title(id)
			if header := "== " + id + ": " + title + " =="; title == "" || !strings.HasPrefix(res.String(), header) {
				t.Errorf("output does not open with %q", header)
			}
			if len(res.Tables) == 0 || len(res.Metrics) == 0 {
				t.Errorf("%d tables, %d metrics", len(res.Tables), len(res.Metrics))
			}
		})
	}
}

func TestSeekTableMonotone(t *testing.T) {
	var out bytes.Buffer
	if err := run("seek", "", nil, &out); err != nil {
		t.Fatal(err)
	}
	// The longest seek row (899 cylinders) must appear.
	if !strings.Contains(out.String(), "899") {
		t.Fatalf("full-stroke row missing:\n%s", out.String())
	}
}

// TestUnknownScenario: an unknown id is refused with every id listed,
// an unknown profile refused.
func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	err := run("wat", "", nil, &out)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
	if err := run("profile", "wat", nil, &out); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileFlagSelects(t *testing.T) {
	var out bytes.Buffer
	if err := run("profile", "tuned", nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "\ntuned ") || strings.Contains(s, "\npaper ") {
		t.Fatalf("-profile tuned did not narrow the table:\n%s", s)
	}
}
