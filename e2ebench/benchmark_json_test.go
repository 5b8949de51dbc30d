package main

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads it
// names: every workload exists, and its rationale states the reference
// rate, the ladder base and the latency limit the code offers.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, bw := range b.Workloads {
		w, err := workloadByName(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"ref " + strconv.FormatFloat(w.refRate, 'f', -1, 64) + " items/s",
			"ladder " + strconv.FormatFloat(w.ladderBase, 'f', -1, 64) + "*2^(k/8)",
			"p50 limit " + strconv.FormatFloat(w.limitMS, 'f', -1, 64) + " ms",
		} {
			if !strings.Contains(bw.Why, want) {
				t.Errorf("%s: why %q does not state %q", w.name, bw.Why, want)
			}
		}
	}
}
