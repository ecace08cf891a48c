package main

import (
	"os"
	"path/filepath"

	"swishmem/internal/obs"
)

// Span names recorded by the traced run, each on the obs.Tracer of the
// goroutine that crosses the boundary (a member's pump, or the goroutine
// stepping the simulator). Spans of one op carry its id as the "op"
// argument; op is the root (due time to completion), the rest sit at layer
// boundaries the benchmark itself crosses.
const (
	spOp        = "op"
	spPumpWait  = "live.pump_wait"
	spWriteCall = "chain.write_call"
	spReadCall  = "chain.read_call"
	spAddCall   = "ewo.add_call"
	spCommit    = "commit"
	spRunFor    = "sim.run_for"
)

// spanCap is each tracer's ring size; a longer run keeps its latest spans.
const spanCap = 1 << 17

// span records one span of op id, with times in nanoseconds since the run's
// time base.
func span(tr *obs.Tracer, pid int32, name string, id uint64, start, end int64) {
	ev := tr.Emit(obs.PhaseSpan, start, end-start, pid, "perfbench", name)
	ev.K1, ev.V1 = "op", int64(id)
}

// writeSpans writes the tracers' spans as Chrome trace-event JSON (loadable
// in Perfetto), creating the directory as needed.
func writeSpans(path string, tracers []*obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tracers...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCount totals the spans the tracers retain.
func spanCount(tracers []*obs.Tracer) int {
	n := 0
	for _, tr := range tracers {
		n += tr.Len()
	}
	return n
}
