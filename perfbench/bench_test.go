package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes shrinks every dimension so each workload runs in well under
// a second.
func tinySizes() sizes {
	return sizes{
		Employees: 30, Projects: 60, Assignments: 120, Titles: 5, ExtraViews: 2,
		Principals: 4, ExtraGrants: 1, ConstsPerTemplate: 4, WarmKeys: 8,
		WriteRate: 200, CheckpointEvery: 20, ProbeWrites: 40, ProbeBursts: 2,
		SetupRepeats: 2, Reopens: 2, CheckSample: 0.5, MaxChecks: 20,
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 7, seconds: 0.4, trace: trace, sizes: tinySizes(),
		workDir: filepath.Join(dir, "run"), traceOut: filepath.Join(dir, "trace.jsonl"), root: ".."}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

// TestWorkloadsReportEveryMetric runs each declared workload untraced
// and traced at tiny size: every answer checks out and the result
// carries exactly the declared metrics with their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	e2e, layer, workloads := declared(t)
	if len(workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, _, err := run(tinyConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: missing metric %s", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, name, m.Unit, unit)
				}
			}
		}
	}
}

// TestPlantedMismatchFails corrupts one checked answer per workload:
// each must count as a failed operation and fail the run.
func TestPlantedMismatchFails(t *testing.T) {
	_, _, workloads := declared(t)
	for _, w := range workloads {
		cfg := tinyConfig(t, w, false)
		cfg.plant = true
		res, _, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: planted mismatch not caught (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

// TestUnknownWorkloadFails checks the command refuses a workload it does
// not define, printing no result.
func TestUnknownWorkloadFails(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if code := cli([]string{"--workload", "nope", "--seconds", "1"}, f); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if st, _ := f.Stat(); st.Size() != 0 {
		t.Fatal("unknown workload printed a result")
	}
}

// TestStallMovesOnlyItsSlice checks that a stall confined to one slice
// of the window leaves read_p99_ms and read_qps where the rest of the
// window puts them, while the whole window's figures move.
func TestStallMovesOnlyItsSlice(t *testing.T) {
	t0 := time.Now()
	var ds []time.Duration
	var starts []time.Time
	at := t0
	for i := 0; i < 10*sliceReads; i++ {
		d := time.Duration(1+i%100) * time.Millisecond / 100
		if i >= 4*sliceReads && i < 4*sliceReads+200 {
			d = 10 * time.Millisecond
		}
		ds = append(ds, d)
		starts = append(starts, at)
		at = at.Add(d)
	}
	got, n := slicedPercentile(ds, starts, 0.99)
	if n != 10 || got != 990*time.Microsecond {
		t.Errorf("sliced p99 = %v over %d slices, want 990µs over 10", got, n)
	}
	if whole := percentile(ds, 0.99); whole != 10*time.Millisecond {
		t.Errorf("whole-window p99 = %v, want the stall's 10ms", whole)
	}
	// Outside the stall a read takes 0.505ms on average (about 1980/s);
	// the stall fills one of the 49 groups and part of another.
	qps, groups := medianRate(ds, starts, []phase{{t0, at}})
	if groups != 49 || qps < 1900 || qps > 2100 {
		t.Errorf("median rate = %.0f/s over %d groups, want about 1980/s over 49", qps, groups)
	}
}
