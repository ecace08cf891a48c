package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

func drawOps(seed int64, n int) []op {
	a := newArrivals(seed, 0, 10000, liveMembers, 512, newZipf(512, 0.99), opWrite, 0.5)
	out := make([]op, n)
	for i := range out {
		out[i] = a.next()
	}
	return out
}

func TestOneSeedOneOpSequence(t *testing.T) {
	a, b := drawOps(7, 5000), drawOps(7, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs for one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := drawOps(8, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 gave the same op sequence")
	}
	k1, k2 := newKeySource(7, 1, 512), newKeySource(7, 1, 512)
	for i := 0; i < 1000; i++ {
		x1, v1 := k1.next()
		x2, v2 := k2.next()
		if x1 != x2 || v1 != v2 {
			t.Fatalf("closed-loop key source %d differs for one seed", i)
		}
	}
}

func TestArrivalsShape(t *testing.T) {
	ops := drawOps(3, 20000)
	reads, hot := 0, 0
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("due times go backwards at %d", i)
		}
		if o.kind == opRead {
			reads++
		}
		if o.key == 0 {
			hot++
		}
		if int(o.member) >= liveMembers || o.key >= 512 {
			t.Fatalf("op out of range: %+v", o)
		}
	}
	if f := float64(reads) / float64(len(ops)); math.Abs(f-0.5) > 0.02 {
		t.Errorf("read share %.3f, want 0.5", f)
	}
	// Zipf(0.99) over 512 keys gives key 0 about 14% of draws.
	if f := float64(hot) / float64(len(ops)); f < 0.10 || f > 0.18 {
		t.Errorf("hottest key share %.3f, want about 0.14", f)
	}
	// 20000 ops at 10000/s span about two seconds.
	if span := float64(ops[len(ops)-1].due) / 1e9; math.Abs(span-2) > 0.1 {
		t.Errorf("20000 ops span %.3fs, want about 2s", span)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	r := newRNG(5, 5)
	var h latHist
	xs := make([]float64, 50000)
	for i := range xs {
		v := int64(1000 + r.exp()*200000)
		xs[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := xs[int(q*float64(len(xs)))-1]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 0.02 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, exact)
		}
	}
}

func TestBestQuartileSkipsEmptyWindows(t *testing.T) {
	var empty, full latHist
	for _, v := range []int64{100, 200, 300, 400} {
		full.record(v * 1000)
	}
	ws := []*latHist{&empty, &full, &empty, &full}
	p50 := func(h *latHist) float64 { return h.quantile(0.5) }
	if got := bestQuartile(ws, false, p50); math.IsNaN(got) || got < 150e3 {
		t.Fatalf("lower quartile %v: an empty window read as fast", got)
	}
	if got := bestQuartile([]*latHist{&empty}, false, p50); !math.IsNaN(got) {
		t.Fatalf("all windows empty gave %v, want NaN", got)
	}
	xs := []float64{4, 1, 3, 2, 5}
	id := func(x float64) float64 { return x }
	if lo, hi := bestQuartile(xs, false, id), bestQuartile(xs, true, id); lo != 2 || hi != 4 {
		t.Fatalf("quartiles of 1..5 = %v, %v; want 2, 4", lo, hi)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json at the repository root to the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}
