package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs one round of a workload.
func tiny(t *testing.T, name string, seed uint64, trace, corrupt bool) *result {
	t.Helper()
	res, err := run(options{workload: name, seed: seed, rounds: 1, trace: trace, corrupt: corrupt}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res := tiny(t, w.Name, 1, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	for name := range workloads {
		a := tiny(t, name, 7, false, false)
		b := tiny(t, name, 7, false, false)
		if len(a.counts) == 0 || !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: counts differ between runs of one seed:\n%v\n%v", name, a.counts, b.counts)
		}
		c := tiny(t, name, 8, false, false)
		if reflect.DeepEqual(a.counts, c.counts) {
			t.Errorf("%s: seeds 7 and 8 give identical counts %v", name, a.counts)
		}
	}
}

func TestCorruptedOutputTripsCheck(t *testing.T) {
	for name := range workloads {
		res := tiny(t, name, 1, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted output passed the checks (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}
