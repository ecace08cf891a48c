package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// stackFixture is a fixed set of leaf-first stacks with the layer each must
// be charged to.
var stackFixture = []struct {
	funcs  []string
	weight int64
	want   string
}{
	{[]string{"syscall.Syscall6", "syscall.sendto", "internal/poll.(*FD).WriteTo",
		"net.(*UDPConn).WriteTo", "swishmem/internal/netem/live.(*Node).Send",
		"swishmem/internal/netem/live.(*Fabric).flushBatch"}, 40, "socket.write"},
	{[]string{"runtime.exitsyscall", "syscall.recvfrom", "internal/poll.(*FD).ReadFromInet4",
		"net.(*UDPConn).ReadFromUDPAddrPort", "swishmem/internal/netem/live.(*Node).readLoop"}, 30, "socket.read"},
	{[]string{"internal/poll.(*fdMutex).rwlock", "internal/poll.(*FD).writeLock",
		"internal/poll.(*FD).WriteTo", "swishmem/internal/netem/live.(*Node).Send"}, 5, "socket.write"},
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 20, "runtime.gc"},
	{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
		"runtime.mallocgc", "swishmem/internal/chain.(*Node).Write"}, 3, "runtime.gc"},
	{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
		"runtime.findRunnable", "runtime.schedule"}, 25, "runtime.sched"},
	// Nested swishmem frames: the leaf-most module owns the sample.
	{[]string{"swishmem/internal/wire.(*ViewSet).Decode", "swishmem/internal/netem/live.(*Fabric).deliver",
		"swishmem/internal/netem/live.(*Fabric).pump"}, 14, "wire"},
	{[]string{"runtime.mapaccess2", "swishmem/internal/ewo.(*Node).merge",
		"swishmem/internal/core.(*Instance).route", "swishmem/internal/pisa.(*Switch).deliver",
		"swishmem/internal/sim.(*Engine).runBatch"}, 11, "ewo"},
	{[]string{"swishmem/internal/chain/ctrlplane.(*Table).Put", "swishmem/internal/chain.(*Node).apply"}, 2, "chain"},
	{[]string{"swishmem/internal/sim.(*Engine).RunUntil", "swishmem.(*Cluster).advanceTo",
		"swishmem.(*Cluster).RunFor", "main.(*simRun).step"}, 9, "sim"},
	{[]string{"swishmem.(*Cluster).RunFor", "main.(*simRun).step"}, 1, "facade"},
	{[]string{"math.Log", "main.(*rng).exp", "main.(*liveRun).generate"}, 4, "gen"},
	{[]string{"time.now", "runtime.nanotime1"}, 2, "other"},
}

func TestLayerOfFixture(t *testing.T) {
	for _, c := range stackFixture {
		if got := layerOf(c.funcs); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.funcs, got, c.want)
		}
	}
}

func TestLayerSharesSumToTotal(t *testing.T) {
	var stacks []stack
	var total int64
	want := map[string]int64{}
	for _, c := range stackFixture {
		stacks = append(stacks, stack{funcs: c.funcs, weight: c.weight})
		total += c.weight
		want[c.want] += c.weight
	}
	shares := layerShares(stacks)
	var sum float64
	for l, v := range shares {
		sum += v
		if exp := 100 * float64(want[l]) / float64(total); math.Abs(v-exp) > 1e-9 {
			t.Errorf("share %s = %v, want %v", l, v, exp)
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
	rep := newReport()
	reportShares(rep, shares)
	var named float64
	for _, d := range perLayer {
		if d.unit == "%" && d.name != "trace.overhead_pct" && d.name != "trace.cpu_overhead_pct" {
			named += rep.values[d.name]
		}
	}
	if math.Abs(named-100) > 1e-9 {
		t.Fatalf("reported layer shares sum to %v, want 100", named)
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	r := newRNG(1, 1)
	var sink float64
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink += r.exp()
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Fatalf("no samples decoded (sink %v)", sink)
	}
	shares := layerShares(stacks)
	if shares["gen"] <= 0 {
		t.Fatalf("the benchmark's own spin loop got no share: %v", shares)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
