// Command pariosim prints the registered scenarios of
// internal/experiments: the paper's Figure 1 and tables E1–E11, the
// device model (seek curve, service times, striping), and the grown
// stack's scan, collective, service and scaling scenarios. Every
// scenario runs under virtual time and verifies the bytes it wrote.
//
// Usage:
//
//	pariosim -scenario all
//	pariosim -scenario pipeline -trace out.json -metrics
//	pariosim -scenario profile -profile tuned
//
// With -trace the run records every scenario through the flight
// recorder and writes a Chrome trace-event JSON file (load in Perfetto
// or chrome://tracing); -metrics prints the recorder's metrics snapshot
// and per-track utilization tables after the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/probe"
)

func main() {
	scenario := flag.String("scenario", "all", "scenario id, or all; an unknown id lists them")
	profile := flag.String("profile", "", "profile for the profile scenario: tuned, paper, or empty for both")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	tracePath := flag.String("trace", "", "record the run and write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file")
	metrics := flag.Bool("metrics", false, "print the flight recorder's metrics snapshot and per-track utilization after the run")
	flag.Parse()
	var rec *probe.Recorder
	if *tracePath != "" || *metrics {
		rec = probe.New()
	}
	if err := profiledRun(*scenario, *profile, *cpuprofile, *memprofile, rec); err != nil {
		fmt.Fprintf(os.Stderr, "pariosim: %v\n", err)
		os.Exit(1)
	}
	if err := exportRecording(rec, *tracePath, *metrics, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pariosim: %v\n", err)
		os.Exit(1)
	}
}

// exportRecording writes the trace file and/or prints the metrics and
// utilization tables once the scenarios have run.
func exportRecording(rec *probe.Recorder, tracePath string, metrics bool, w io.Writer) error {
	if rec == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans on %d tracks to %s\n", len(rec.Spans()), len(rec.Tracks()), tracePath)
	}
	if metrics {
		fmt.Fprintln(w, rec.Metrics().Table().String())
		fmt.Fprintln(w, rec.UtilizationTable().String())
	}
	return nil
}

// profiledRun wraps run with the optional pprof captures, so the
// simulator's own hot paths (the scale scenario, above all) can be
// profiled without a test harness.
func profiledRun(scenario, profile, cpuprofile, memprofile string, rec *probe.Recorder) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(scenario, profile, rec, os.Stdout); err != nil {
		return err
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // report live heap, not transient garbage
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// run prints one registered scenario, or every one for "all"; factored
// out of main for testability.
func run(scenario, profile string, rec *probe.Recorder, w io.Writer) error {
	ids := []string{scenario}
	if scenario == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		res, err := runOne(id, profile, rec)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.String())
	}
	return nil
}

// runOne runs one registered scenario; profile narrows the profile
// scenario to one profile.
func runOne(id, profile string, rec *probe.Recorder) (*experiments.Result, error) {
	if id != "profile" || profile == "" {
		return experiments.Run(id, rec)
	}
	res, err := experiments.ProfileScenario(rec, profile)
	if err != nil {
		return nil, err
	}
	res.ID, res.Title = id, experiments.Title(id)
	return res, nil
}
