package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadForwardCompat feeds load() a snapshot from a hypothetical future
// benchtab: the metrics and pps sections use shapes this binary does not
// know. The loader must keep every parseable row, skip the rest, and never
// error — schema drift relaxes gates, it does not break the diff.
func TestLoadForwardCompat(t *testing.T) {
	doc := `{
		"schema": 7,
		"seed": 1,
		"cpus": 8,
		"fleet": {"hosts": ["a", "b"]},
		"micro": [
			{"name": "old/ok", "ns_per_op": 10.0, "allocs_per_op": 0},
			{"name": "new/row", "ns_per_op": {"p50": 9.0, "p99": 14.0}}
		],
		"experiments": [
			{"id": "E16", "wall_ms": 5.0, "metrics": {"parallel.speedup/shards=4": 3.1}},
			{"id": "E99", "wall_ms": 1.0, "metrics": {"verdict": "pass"}}
		],
		"macro": {"rows": [{"name": "live.pps/pump=1", "pps": 1e6}]}
	}`
	path := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := load(path)
	if err != nil {
		t.Fatalf("future-schema snapshot must load leniently, got: %v", err)
	}
	if s.Schema != 7 || s.CPUs != 8 {
		t.Errorf("scalar fields lost: schema=%d cpus=%d", s.Schema, s.CPUs)
	}
	if len(s.Micro) != 1 || s.Micro[0].Name != "old/ok" {
		t.Errorf("want the one parseable micro row, got %+v", s.Micro)
	}
	// E99's metrics map holds a string value; that row is skipped, E16 stays.
	if len(s.Experiments) != 1 || s.Experiments[0].ID != "E16" {
		t.Errorf("want only the parseable experiment row, got %+v", s.Experiments)
	}
	// The whole macro section changed from an array to an object: dropped,
	// which just disables the pps floor.
	if len(s.Macro) != 0 {
		t.Errorf("unknown-shape macro section must be dropped, got %+v", s.Macro)
	}
}

// TestLoadCurrentSchema pins the lenient loader against a well-formed
// schema-4 snapshot: nothing may be skipped.
func TestLoadCurrentSchema(t *testing.T) {
	doc := `{
		"schema": 4, "seed": 1, "cpus": 4,
		"micro": [{"name": "m", "ns_per_op": 5.0, "bytes_per_op": 0, "allocs_per_op": 0}],
		"experiments": [{"id": "E16", "wall_ms": 2.0, "metrics": {"parallel.speedup/shards=4": 2.0}}],
		"macro": [{"name": "live.pps/pump=1", "pps": 2e6, "ops": 100}]
	}`
	path := filepath.Join(t.TempDir(), "current.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Micro) != 1 || len(s.Experiments) != 1 || len(s.Macro) != 1 {
		t.Errorf("current-schema rows lost: %+v", s)
	}
	if s.Macro[0].PPS != 2e6 || s.Micro[0].NsPerOp != 5.0 {
		t.Errorf("row values corrupted: %+v", s)
	}
}

// TestLoadTopLevelGarbage keeps the hard failure: an unreadable document is
// still an error (exit 2 in main), leniency is per-section only.
func TestLoadTopLevelGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("top-level garbage must still fail to load")
	}
}

// TestAllocGateRatchets pins the allocation ratchet: a regression baked into
// the newest committed snapshot must not become the baseline. BENCH_2 holds
// 2 allocs/op where BENCH_1 held 1, so a new snapshot matching BENCH_2 still
// fails; one back at BENCH_1's count passes. The allocs/datagram gate ratchets
// the same way.
func TestAllocGateRatchets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs int, perDatagram float64) string {
		doc := fmt.Sprintf(`{
			"schema": 5, "seed": 1, "cpus": 1,
			"micro": [{"name": "w", "ns_per_op": 100.0, "allocs_per_op": %d}],
			"macro": [{"name": "live.pps/pump=1", "pps": 1e6, "meta": {"allocs_per_datagram": %g}}]
		}`, allocs, perDatagram)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("BENCH_1.json", 1, 0)
	base := write("BENCH_2.json", 2, 2)
	o := options{base: base, tolerance: 0.1, minSpeedup: 1.8, ppsTol: 0.1, minPPS: 0.9}

	for _, tc := range []struct {
		name        string
		allocs      int
		perDatagram float64
		want        int
	}{
		{"micro at newest snapshot", 2, 0, 1},
		{"datagram at newest snapshot", 1, 2, 1},
		{"both at the minimum", 1, 0.4, 0},
	} {
		fresh := filepath.Join(t.TempDir(), "BENCH_new.json")
		doc := fmt.Sprintf(`{"schema": 5, "cpus": 1,
			"micro": [{"name": "w", "ns_per_op": 100.0, "allocs_per_op": %d}],
			"macro": [{"name": "live.pps/pump=1", "pps": 1e6, "meta": {"allocs_per_datagram": %g}}]}`,
			tc.allocs, tc.perDatagram)
		if err := os.WriteFile(fresh, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		o.fresh = fresh
		if got := run(o); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}

}
