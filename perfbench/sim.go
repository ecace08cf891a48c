package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"swishmem"
	"swishmem/internal/chain"
	"swishmem/internal/explore"
	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/stats"
)

// sim-mixed: the facade simulator, 8 switches on DataCenter() links with 1%
// loss; every 20µs of virtual time each switch issues one SRO write and
// eight counter adds.
const (
	simSwitches    = 8
	simStrongKeys  = 4096
	simCounterKeys = 1024
	simStep        = 20 * time.Microsecond
	simAddsPerStep = 8
	simLoss        = 0.01
	simFirstRun    = time.Millisecond
	simDetSteps    = 250  // prefix replayed twice for the determinism gate
	simTraceEvery  = 4    // traced steps get spans
	simDrainMax    = 2000 // drain budget, in 1ms steps of virtual time
	simSetups      = 15
	simVisEvery    = 10              // steps between EWO visibility probes
	simSubWindow   = 2 * time.Second // wall-clock figures are taken over these
)

// simWrite is one in-flight SRO write with its callback bound once.
type simWrite struct {
	key    uint64
	at     time.Duration // virtual issue time
	onDone func(bool)
}

type simRun struct {
	c      *swishmem.Cluster
	strong []*swishmem.StrongRegister
	ctr    []*swishmem.CounterRegister
	r      *rng
	base   time.Time
	free   []*simWrite
	buf    [8]byte

	expected              [simCounterKeys]uint64
	committed             [simStrongKeys]bool
	issued, adds          uint64
	commits, failed, outW uint64
	steps                 uint64

	simDists // since the last edge
	tracing  bool
	spans    *obs.Tracer // traced half only
}

func newSimCluster(seed int64) (*simRun, error) {
	link := netem.DataCenter().Lossy(simLoss)
	c, err := swishmem.New(swishmem.Config{Switches: simSwitches, Seed: seed, Link: &link})
	if err != nil {
		return nil, err
	}
	strong, err := c.DeclareStrong("sro", swishmem.StrongOptions{Capacity: simStrongKeys, ValueWidth: 8})
	if err != nil {
		return nil, err
	}
	ctr, err := c.DeclareCounter("ctr", swishmem.EventualOptions{Capacity: simCounterKeys})
	if err != nil {
		return nil, err
	}
	c.RunFor(simFirstRun)
	return &simRun{c: c, strong: strong, ctr: ctr, r: newRNG(seed, 7), base: time.Now()}, nil
}

func (s *simRun) now() int64 { return int64(time.Since(s.base)) }

func (s *simRun) done(w *simWrite) func(bool) {
	return func(ok bool) {
		s.outW--
		if ok {
			s.commits++
			s.committed[w.key] = true
			s.commitLat.record(int64(s.c.Now() - w.at))
		} else {
			s.failed++
		}
		s.free = append(s.free, w)
	}
}

// step issues one step's ops on every switch and advances virtual time.
func (s *simRun) step() {
	s.steps++
	traced := s.tracing && s.steps%simTraceEvery == 0
	var t0 int64
	if traced {
		t0 = s.now()
	}
	for i := 0; i < simSwitches; i++ {
		var w *simWrite
		if n := len(s.free); n > 0 {
			w, s.free = s.free[n-1], s.free[:n-1]
		} else {
			w = &simWrite{}
			w.onDone = s.done(w)
		}
		w.key = uint64(s.r.intn(simStrongKeys))
		w.at = s.c.Now()
		binary.BigEndian.PutUint64(s.buf[:], s.r.next())
		s.issued++
		s.outW++
		if s.tracing {
			c0 := s.now()
			s.strong[i].Write(w.key, s.buf[:], w.onDone)
			c1 := s.now()
			s.writeCall.record(c1 - c0)
			if traced {
				span(s.spans, obs.PidSim, spWriteCall, s.steps, c0, c1)
			}
		} else {
			s.strong[i].Write(w.key, s.buf[:], w.onDone)
		}
		var a0 int64
		if traced {
			a0 = s.now()
		}
		for j := 0; j < simAddsPerStep; j++ {
			k := s.r.intn(simCounterKeys)
			s.ctr[i].Add(uint64(k), 1)
			s.expected[k]++
			s.adds++
		}
		if traced {
			span(s.spans, obs.PidSim, spAddCall, s.steps, a0, s.now())
		}
	}
	if !traced {
		s.c.RunFor(simStep)
	} else {
		r0 := s.now()
		s.c.RunFor(simStep)
		end := s.now()
		span(s.spans, obs.PidSim, spRunFor, s.steps, r0, end)
		span(s.spans, obs.PidSim, spOp, s.steps, t0, end)
	}
	if s.steps%simVisEvery == 0 {
		s.probeVisibility()
	}
}

// probeVisibility samples one switch's backlog of adds it cannot see yet
// (switches in turn) and converts it to virtual time at the offered add
// rate, the estimator ewo-stream uses on the live path. Reading 1024 sums
// costs about a twentieth of a step, hence one switch per probe.
func (s *simRun) probeVisibility() {
	const addsPerNs = float64(simSwitches*simAddsPerStep) / float64(simStep)
	ctr := s.ctr[(s.steps/simVisEvery)%simSwitches]
	var seen uint64
	for k := uint64(0); k < simCounterKeys; k++ {
		seen += ctr.Sum(k)
	}
	var backlog uint64
	if seen < s.adds {
		backlog = s.adds - seen
	}
	s.visLag.record(int64(float64(backlog) / addsPerNs))
}

// counts is the determinism fingerprint of a run prefix.
type counts struct {
	events, sent, dropped, delivered, commits uint64
}

func (s *simRun) counts() counts {
	t := s.c.NetworkTotals()
	return counts{s.c.EventsProcessed(), t.MsgsSent, t.MsgsDropped, t.MsgsDeliv, s.commits}
}

// simDists are the distributions a simulator run records.
type simDists struct {
	commitLat latHist // SRO commit latency, virtual time
	writeCall latHist // traced: wall time of a Write call
	// visLag is the virtual time an add takes to become visible at a
	// switch, estimated from that switch's backlog of unseen adds.
	visLag latHist
}

func (d *simDists) merge(o *simDists) {
	d.commitLat.merge(&o.commitLat)
	d.writeCall.merge(&o.writeCall)
	d.visLag.merge(&o.visLag)
}

// simEdge is a window edge: facade metrics, the chain write-latency
// histograms, the run's own counters, and the distributions recorded since
// the previous edge.
type simEdge struct {
	at            time.Time
	snap          obs.Snapshot
	usage         cpuMem
	commits, adds uint64
	dists         simDists
	hists         []*stats.Histogram
}

// edge reads the counters and takes the distributions recorded since the
// previous edge.
func (s *simRun) edge(reg *obs.Registry) simEdge {
	e := simEdge{at: time.Now(), snap: reg.Snapshot(), usage: readCPUMem(),
		commits: s.commits, adds: s.adds, dists: s.simDists}
	for i := 0; i < simSwitches; i++ {
		s.c.Instance(i).EachChain(func(_ uint16, n chain.Replicator) {
			h := stats.NewHistogram()
			h.CopyFrom(n.WriteLatency())
			e.hists = append(e.hists, h)
		})
	}
	s.simDists = simDists{}
	return e
}

// simWindow is what happened between two edges.
type simWindow struct {
	simDists
	secs, ops, adds float64
	usage           cpuMem
}

// measure steps the simulator for total wall time, cut into sub-windows;
// it returns them with the first and last edge.
func (s *simRun) measure(reg *obs.Registry, total time.Duration) ([]*simWindow, simEdge, simEdge) {
	n := max(1, int(total/simSubWindow))
	step := total / time.Duration(n)
	first := s.edge(reg)
	prev := first
	ws := make([]*simWindow, 0, n)
	for i := 1; i <= n; i++ {
		end := first.at.Add(time.Duration(i) * step)
		for time.Now().Before(end) {
			s.step()
		}
		e := s.edge(reg)
		ws = append(ws, &simWindow{
			simDists: e.dists,
			secs:     e.at.Sub(prev.at).Seconds(),
			ops:      float64(e.commits - prev.commits + e.adds - prev.adds),
			adds:     float64(e.adds - prev.adds),
			usage:    e.usage.sub(prev.usage),
		})
		prev = e
	}
	return ws, first, prev
}

// totals sums ops, seconds and CPU over windows.
func simTotals(ws []*simWindow) (ops, secs, cpu float64) {
	for _, w := range ws {
		ops += w.ops
		secs += w.secs
		cpu += w.usage.cpu.Seconds()
	}
	return ops, secs, cpu
}

func runSim(name string, o options, rep *report) error {
	var (
		runs   []*simRun // determinism pair, then the measured cluster
		setups []float64
	)
	// Set-up is sub-millisecond, so it is repeated more often than the live
	// boot. The first two clusters serve the determinism gate, the last one
	// the measurement.
	for i := 0; i < simSetups; i++ {
		runtime.GC() // each set-up starts from a collected heap, not from its predecessors' garbage
		t0 := time.Now()
		s, err := newSimCluster(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(runs) < 2 || i == simSetups-1 {
			runs = append(runs, s)
		}
	}
	rep.set("setup_s", median(setups))

	// Determinism gate: two clusters built from one seed replay the same
	// prefix and must count the same events, messages and commits.
	a, b := runs[0], runs[1]
	for i := 0; i < simDetSteps; i++ {
		a.step()
		b.step()
	}
	if ca, cb := a.counts(), b.counts(); ca != cb {
		rep.fail("determinism: one seed gave %+v and %+v", ca, cb)
	}
	s := runs[len(runs)-1]
	runs = nil
	reg := s.c.Metrics()

	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	warmEnd := time.Now().Add(warmup / 2)
	for time.Now().Before(warmEnd) {
		s.step()
	}
	ws, _, _ := s.measure(reg, measure)
	rep.set("ops_per_s", bestQuartile(ws, true, func(w *simWindow) float64 { return w.ops / w.secs }))
	rep.set("cpu_us_per_op", bestQuartile(ws, false, func(w *simWindow) float64 { return w.usage.cpu.Seconds() * 1e6 / w.ops }))
	rep.set("runtime.allocs_per_op", bestQuartile(ws, false, func(w *simWindow) float64 { return float64(w.usage.mallocs) / w.ops }))
	// Commit latency and visibility lag are virtual time: host noise cannot
	// reach them, so they are taken over the whole window.
	var d simDists
	for _, w := range ws {
		d.merge(&w.simDists)
	}
	rep.set("latency_p50_us", d.commitLat.quantileUS(0.5))
	rep.set("latency_p99_us", d.commitLat.quantileUS(0.99))
	rep.set("read_latency_p99_us", d.visLag.quantileUS(0.99))
	rep.set("gen.latency_samples", float64(d.commitLat.n))
	rep.set("gen.read_samples", float64(d.visLag.n))

	if o.trace {
		ops, secs, cpu := simTotals(ws)
		if err := s.traced(name, o, reg, rep, ops/secs, cpu/ops, measure); err != nil {
			return err
		}
	}
	s.drainAndCheck(rep)
	rep.set("runtime.peak_rss_mb", peakRSSMB())
	return nil
}

// traced runs the second half of a --trace 1 run with spans and the CPU
// profile on, and reports the per-layer metrics.
func (s *simRun) traced(name string, o options, reg *obs.Registry, rep *report,
	plainOps, plainCPU float64, measure time.Duration) error {
	s.spans = obs.NewTracer(spanCap)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	s.tracing = true
	ws, e0, e1 := s.measure(reg, measure)
	s.tracing = false
	shares, err := prof.stop(o.artifact(name, "cpu.pprof"))
	if err != nil {
		return err
	}
	ops, secs, cpu := simTotals(ws)
	var dists simDists
	var adds float64
	for _, w := range ws {
		dists.merge(&w.simDists)
		adds += w.adds
	}
	rep.set("ewo.visibility_p99_us", dists.visLag.quantileUS(0.99))
	d := e1.snap.Diff(e0.snap)
	rep.set("trace.overhead_pct", 100*(plainOps-ops/secs)/plainOps)
	rep.set("trace.cpu_overhead_pct", 100*(cpu/ops-plainCPU)/plainCPU)
	events := d.Sum("sim.events_processed")
	rep.set("sim.events_per_op", events/ops)
	rep.set("sim.events_per_s", events/secs)
	sent := d.Sum("net.msgs_sent")
	rep.set("netem.msgs_per_op", sent/ops)
	rep.set("netem.drop_ratio", d.Sum("net.msgs_dropped")/sent)
	rep.set("pisa.ctrl_ops_per_op", d.Sum("switch.ctrl_ops")/ops)
	rep.set("pisa.msgs_handled_per_op", d.Sum("switch.msgs_handled")/ops)
	rep.set("chain.retries_per_commit", d.Sum("chain.retries")/d.Sum("chain.writes_committed"))
	rep.set("chain.write_call_p50_ns", dists.writeCall.quantile(0.5))
	h := stats.NewHistogram()
	for i, cur := range e1.hists {
		h.AddDelta(cur, e0.hists[i])
	}
	rep.set("chain.commit_hist_p99_us", h.Quantile(0.99)/1e3)
	rep.set("ewo.updates_per_add", d.Sum("ewo.updates_sent")/adds)
	rep.set("ewo.entries_merged_per_add", d.Sum("ewo.entries_merged")/adds)
	rep.set("ewo.sync_bytes_per_s", d.Sum("ewo.sync_bytes")/secs)
	reportShares(rep, shares)
	rep.set("trace.spans", float64(s.spans.Len()))
	return writeSpans(o.artifact(name, "spans.json"), []*obs.Tracer{s.spans})
}

// converged reports whether every switch holds the exact counter totals.
func (s *simRun) converged() bool {
	for _, ctr := range s.ctr {
		for k, want := range s.expected {
			if ctr.Sum(uint64(k)) != want {
				return false
			}
		}
	}
	return true
}

// drainAndCheck stops issuing, runs the simulator until every write has
// resolved and synchronization has converged, and checks that every write
// resolved, counter totals are exact on every switch, committed keys are
// durable on every replica, and counter state converged.
func (s *simRun) drainAndCheck(rep *report) {
	// Resolve every write, then let periodic synchronization repair the
	// adds lost on the lossy links: at most simDrainMax of virtual time.
	for i := 0; (s.outW > 0 || !s.converged()) && i < simDrainMax; i++ {
		s.c.RunFor(time.Millisecond)
	}
	rep.attempted = int64(s.issued + s.adds)
	rep.failed = int64(s.failed + s.outW)
	if s.outW > 0 {
		rep.fail("%d SRO writes unresolved after the drain", s.outW)
	}
	if s.failed > 0 {
		rep.fail("%d SRO writes failed", s.failed)
	}
	var keys []uint64
	for k, ok := range s.committed {
		if ok {
			keys = append(keys, uint64(k))
		}
	}
	chainViews := make([]explore.ChainView, simSwitches)
	ctrViews := make([]explore.EWOView, simSwitches)
	var missing uint64
	for i := 0; i < simSwitches; i++ {
		name := fmt.Sprintf("switch %d", i)
		node, ctr := s.strong[i].Node(), s.ctr[i]
		chainViews[i] = explore.ChainView{Name: name, Get: node.Get}
		ctrViews[i] = explore.EWOView{Name: name, Sum: ctr.Sum, Digest: ctr.Node().StateDigest}
		var m uint64
		for k, want := range s.expected {
			if got := ctr.Sum(uint64(k)); got < want {
				m += want - got
			}
		}
		missing = max(missing, m)
	}
	rep.failed += int64(missing)
	for _, f := range explore.OracleDurability(keys, chainViews) {
		rep.fail("durability: %s", f)
	}
	for _, f := range explore.OracleCounterTotals(s.expected[:], ctrViews) {
		rep.fail("counter: %s", f)
	}
	for _, f := range explore.OracleConvergence(ctrViews) {
		rep.fail("counter: %s", f)
	}
}
