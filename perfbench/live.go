package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"swishmem/internal/explore"
	"swishmem/internal/livecluster"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/obs"
	"swishmem/internal/stats"
)

// liveSpec shapes one live workload (see README.md for why each exists).
type liveSpec struct {
	window     int     // closed loop: SRO writes in flight per member (0 = open loop)
	rate       float64 // open loop: ops/s offered cluster-wide
	readFrac   float64 // open loop: share of the ops that are SRO reads
	zipfS      float64 // open loop: Zipf exponent over keys (0 = uniform)
	keys       int
	kind       uint8 // open loop: op kind of the non-read share
	probe      uint8 // 1 kHz probe op (0 = none)
	traceEvery uint64
}

var liveSpecs = map[string]liveSpec{
	"sro-window": {window: 4, keys: livecluster.StrongCapacity, probe: opReadProbe, traceEvery: 8},
	"sro-paced": {rate: 10000, readFrac: 0.5, zipfS: 0.99, keys: livecluster.StrongCapacity,
		kind: opWrite, traceEvery: 1},
	"ewo-stream": {rate: 100000, keys: counterKeys, kind: opAdd, probe: opVisProbe, traceEvery: 64},
}

const (
	liveMembers = 3
	counterKeys = 128 // the members' counter register capacity
	// genTick is the generator's posting period. Go's timers cannot sleep
	// much under a millisecond when the process is idle (the netpoller
	// waits in whole milliseconds), and sleeping in the kernel instead
	// costs more CPU than the 10k ops/s workload, so open-loop ops wait up
	// to one tick in the generator; that wait is part of their latency.
	genTick      = time.Millisecond
	probePeriod  = time.Millisecond
	warmup       = time.Second
	drainTimeout = time.Minute // generous: a starved host can leave seconds of backlog
	setupRepeats = 5
	subWindow    = 2 * time.Second // end-to-end figures are taken over these (see bestQuartile)
	probeIDs     = 1 << 62         // probe op ids live apart from workload op ids
)

// liveCluster is a controller plus members on loopback, as livecluster
// ships them (coalesced egress on two egress workers).
type liveCluster struct {
	ctrl    *live.Fabric
	members []*livecluster.Member
}

// bootLive starts a controller and liveMembers members and returns once
// every member holds chain epoch >= 1 and a full EWO group.
func bootLive(seed int64) (*liveCluster, error) {
	addrs := make([]netem.Addr, liveMembers)
	for i := range addrs {
		addrs[i] = netem.Addr(i + 1)
	}
	ctrl, _, err := livecluster.NewLiveController(seed, "", addrs, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	ctrl.Start()
	c := &liveCluster{ctrl: ctrl}
	for i, a := range addrs {
		m, err := livecluster.NewMember(livecluster.MemberConfig{
			Addr: a, Seed: seed + int64(i)*7919, ControllerEP: ctrl.AddrPort(),
		})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		c.members = append(c.members, m)
		m.Start()
	}
	deadline := time.Now().Add(30 * time.Second)
	for !c.ready() {
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("bootstrap timeout")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c, nil
}

func (c *liveCluster) ready() bool {
	for _, m := range c.members {
		ok := false
		m.Fabric.Call(func() {
			ok = m.Strong.Node().Chain().Epoch >= 1 && len(m.Counter.Node().Group()) == liveMembers
		})
		if !ok {
			return false
		}
	}
	return true
}

func (c *liveCluster) stop() {
	for _, m := range c.members {
		m.Stop()
	}
	c.ctrl.Stop()
}

// winStats is what a member's pump counted since the last window boundary.
type winStats struct {
	commits, reads, adds uint64
	lat                  latHist // op latency: SRO due/issue -> commit callback
	rlat                 latHist // read latency: due -> read callback (or probe done)
	applyLat             latHist // EWO add: due -> applied on its member's pump
	visLag               latHist // EWO visibility lag samples
	pumpWait             latHist // traced: Post enqueue -> closure start
	writeCall            latHist // traced: duration of StrongRegister.Write
}

// sroSlot is one in-flight SRO op with its callbacks bound once, so issuing
// an op allocates nothing on the benchmark's side.
type sroSlot struct {
	ml       *memberLoad
	key, id  uint64
	due, ret int64
	kind     uint8
	traced   bool
	onCommit func(bool)
	onRead   func([]byte, bool)
}

// memberLoad is the benchmark's state for one member. Apart from done, it
// is touched only on that member's pump goroutine (the main goroutine reads
// it through Fabric.Call, or after the pump has drained).
type memberLoad struct {
	r      *liveRun
	m      *livecluster.Member
	idx    int
	keys   *keySource
	free   []*sroSlot
	buf    [8]byte
	win    *winStats
	seq    uint64
	outW   int
	outR   int
	issued uint64
	failed uint64 // write callbacks with committed=false
	// committed marks every key with a committed write, for the
	// durability oracle.
	committed [livecluster.StrongCapacity]bool
	spans     *obs.Tracer // traced run only
	pid       int32       // the member's address: its lane in the span file
	reg       *obs.Registry
	histPrev  *stats.Histogram
	// done counts ops the pump has taken from posted batches; the
	// generator compares it with what it posted to bound the backlog.
	done atomic.Uint64
}

// batch is one generator tick's ops for one member, handed over with a
// single Fabric.Post. Batches are pooled with their closure bound once.
type batch struct {
	ml     *memberLoad
	ops    []op
	posted int64
	run    func()
}

type liveRun struct {
	spec     liveSpec
	c        *liveCluster
	ctrlReg  *obs.Registry
	loads    []*memberLoad
	base     time.Time
	stop     atomic.Bool
	tracing  atomic.Bool
	genRec   atomic.Bool   // generator records lateness/post counts
	posted   atomic.Uint64 // EWO adds posted cluster-wide
	freeB    chan *batch
	arr      *arrivals
	probeRNG *rng
	expected [counterKeys]uint64 // generator-owned until it exits

	// Generator statistics (generator goroutine until it exits).
	genLate  latHist
	genOps   uint64
	genPosts uint64
	// shed counts open-loop ops the generator dropped because their
	// member's backlog exceeded maxBacklog; each one is a failed op.
	shed uint64
}

func (r *liveRun) now() int64 { return int64(time.Since(r.base)) }

func newLiveRun(spec liveSpec, o options, c *liveCluster) *liveRun {
	r := &liveRun{spec: spec, c: c, base: time.Now(),
		// The pool holds more batches than the backlog cap lets queue
		// (three members × 100 ticks), so a steady run never allocates one.
		freeB: make(chan *batch, 1024), probeRNG: newRNG(o.seed, 2)}
	r.ctrlReg = obs.NewRegistry()
	c.ctrl.RegisterMetrics(r.ctrlReg, "")
	addEngineCounters(r.ctrlReg, c.ctrl)
	for i, m := range c.members {
		ml := &memberLoad{r: r, m: m, idx: i, win: &winStats{},
			keys: newKeySource(o.seed, i, spec.keys), reg: obs.NewRegistry(),
			histPrev: stats.NewHistogram()}
		if o.trace {
			ml.spans, ml.pid = obs.NewTracer(spanCap), int32(m.Fabric.Addr())
		}
		m.RegisterMetrics(ml.reg, "")
		addEngineCounters(ml.reg, m.Fabric)
		cs := m.Strong.Node().Counters()
		ml.reg.AddCounter("bench.reads_forwarded", "", &cs.ReadsForwarded)
		ml.reg.AddCounter("bench.reads_local", "", &cs.ReadsLocal)
		ml.reg.AddCounter("bench.ctrl_ops", "", &m.Switch.Stats.CtrlOps)
		ml.reg.AddCounter("bench.msgs_handled", "", &m.Switch.Stats.MsgsHandled)
		r.loads = append(r.loads, ml)
	}
	if spec.rate > 0 {
		var z *zipf
		if spec.zipfS > 0 {
			z = newZipf(spec.keys, spec.zipfS)
		}
		r.arr = newArrivals(o.seed, r.now(), spec.rate, liveMembers, spec.keys, z, spec.kind, spec.readFrac)
	}
	return r
}

// addEngineCounters registers a fabric's engine event count and its local
// netem totals (existing stats the member registry does not expose).
func addEngineCounters(reg *obs.Registry, f *live.Fabric) {
	reg.AddCounterFunc("bench.events", "", f.Engine().Processed)
	reg.AddCounterFunc("bench.netem_sent", "", func() uint64 { return f.Network().Totals().MsgsSent })
	reg.AddCounterFunc("bench.netem_dropped", "", func() uint64 { return f.Network().Totals().MsgsDropped })
}

func (ml *memberLoad) span(name string, id uint64, start, end int64) {
	span(ml.spans, ml.pid, name, id, start, end)
}

func (ml *memberLoad) slot() *sroSlot {
	if n := len(ml.free); n > 0 {
		s := ml.free[n-1]
		ml.free = ml.free[:n-1]
		return s
	}
	s := &sroSlot{ml: ml}
	s.onCommit = s.commit
	s.onRead = s.readDone
	return s
}

func (ml *memberLoad) write(s *sroSlot, key, val uint64, due int64, id uint64) {
	s.key, s.due, s.id = key, due, id
	binary.BigEndian.PutUint64(ml.buf[:], val)
	ml.outW++
	ml.issued++
	if !ml.r.tracing.Load() {
		s.traced = false
		ml.m.Strong.Write(key, ml.buf[:], s.onCommit)
		return
	}
	s.traced = id%ml.r.spec.traceEvery == 0
	t0 := ml.r.now()
	s.ret = t0
	ml.m.Strong.Write(key, ml.buf[:], s.onCommit)
	t1 := ml.r.now()
	s.ret = t1
	ml.win.writeCall.record(t1 - t0)
	if s.traced {
		ml.span(spWriteCall, id, t0, t1)
	}
}

func (s *sroSlot) commit(ok bool) {
	ml := s.ml
	now := ml.r.now()
	ml.outW--
	if ok {
		ml.committed[s.key] = true
		ml.win.commits++
		ml.win.lat.record(now - s.due)
	} else {
		ml.failed++
	}
	if s.traced {
		ml.span(spCommit, s.id, s.ret, now)
		ml.span(spOp, s.id, s.due, now)
	}
	if ml.r.spec.window > 0 && !ml.r.stop.Load() {
		key, val := ml.keys.next()
		ml.seq++
		ml.write(s, key, val, now, ml.seq*liveMembers+uint64(ml.idx))
		return
	}
	ml.free = append(ml.free, s)
}

func (ml *memberLoad) read(o *op) {
	s := ml.slot()
	s.key, s.due, s.id, s.kind = o.key, o.due, o.id, o.kind
	ml.outR++
	if o.kind == opRead {
		ml.issued++
	}
	if !ml.r.tracing.Load() {
		s.traced = false
		ml.m.Strong.Read(o.key, s.onRead)
		return
	}
	traced := o.id%ml.r.spec.traceEvery == 0
	s.traced = traced
	t0 := ml.r.now()
	ml.m.Strong.Read(o.key, s.onRead) // may complete (and recycle s) inline
	if traced {
		ml.span(spReadCall, o.id, t0, ml.r.now())
	}
}

func (s *sroSlot) readDone([]byte, bool) {
	ml := s.ml
	now := ml.r.now()
	ml.outR--
	if s.kind == opRead {
		ml.win.reads++
	}
	ml.win.rlat.record(now - s.due)
	if s.traced {
		ml.span(spOp, s.id, s.due, now)
	}
	ml.free = append(ml.free, s)
}

// exec runs one batch on the member's pump.
func (b *batch) exec() {
	ml := b.ml
	r := ml.r
	start := r.now()
	tracing := r.tracing.Load()
	if tracing {
		ml.win.pumpWait.record(start - b.posted)
	}
	for i := range b.ops {
		o := &b.ops[i]
		if tracing && o.id%r.spec.traceEvery == 0 {
			ml.span(spPumpWait, o.id, b.posted, start)
		}
		switch o.kind {
		case opWrite:
			ml.write(ml.slot(), o.key, o.val, o.due, o.id)
		case opRead, opReadProbe:
			ml.read(o)
		case opAdd:
			ml.win.adds++
			ml.win.applyLat.record(start - o.due)
			if tracing && o.id%r.spec.traceEvery == 0 {
				t0 := r.now()
				ml.m.Counter.Add(o.key, 1)
				t1 := r.now()
				ml.span(spAddCall, o.id, t0, t1)
				ml.span(spOp, o.id, o.due, t1)
			} else {
				ml.m.Counter.Add(o.key, 1)
			}
		case opVisProbe:
			posted := r.posted.Load()
			var sum uint64
			for k := uint64(0); k < counterKeys; k++ {
				sum += ml.m.Counter.Sum(k)
			}
			now := r.now()
			ml.win.rlat.record(now - o.due)
			var backlog uint64
			if posted > sum {
				backlog = posted - sum
			}
			ml.win.visLag.record(int64(float64(backlog) / r.spec.rate * 1e9))
		case opOpenWindow:
			for j := 0; j < r.spec.window; j++ {
				key, val := ml.keys.next()
				ml.seq++
				ml.write(ml.slot(), key, val, start, ml.seq*liveMembers+uint64(ml.idx))
			}
		}
	}
	ml.done.Add(uint64(len(b.ops)))
	b.ops = b.ops[:0]
	select {
	case r.freeB <- b:
	default:
	}
}

func (r *liveRun) getBatch(ml *memberLoad) *batch {
	select {
	case b := <-r.freeB:
		b.ml = ml
		return b
	default:
		b := &batch{ml: ml, ops: make([]op, 0, 64)}
		b.run = b.exec
		return b
	}
}

// generate is the single load goroutine: every tick it collects the
// open-loop ops and probes that have fallen due and posts them to the
// members' pumps in one batch per member.
func (r *liveRun) generate(done chan<- struct{}) {
	defer close(done)
	pending := make([]*batch, liveMembers)
	sent := make([]uint64, liveMembers) // ops posted per member
	add := func(o op) {
		b := pending[o.member]
		if b == nil {
			b = r.getBatch(r.loads[o.member])
			pending[o.member] = b
		}
		b.ops = append(b.ops, o)
	}
	// An overloaded member (a much slower build, the race detector) must
	// not queue without bound: past 100ms of its offered load, ops are
	// shed at the source and counted as failed, so memory stays bounded and
	// a window-edge Call never waits behind seconds of backlog.
	maxBacklog := uint64(r.spec.rate/liveMembers/10) + 100
	backlogged := func(m uint8) bool { return sent[m]-r.loads[m].done.Load() > maxBacklog }
	if r.spec.window > 0 {
		for i := range r.loads {
			add(op{kind: opOpenWindow, due: r.now(), member: uint8(i)})
		}
	}
	var probeSeq uint64
	probeNext := r.now() + int64(probePeriod)
	next := time.Now()
	for !r.stop.Load() {
		now := r.now()
		for r.arr != nil && r.arr.peek() <= now {
			o := r.arr.next()
			if backlogged(o.member) {
				r.shed++
				continue
			}
			if o.kind == opAdd {
				r.expected[o.key]++
			}
			add(o)
		}
		for r.spec.probe != 0 && probeNext <= now {
			probeSeq++
			id := probeIDs | probeSeq
			if r.spec.probe == opVisProbe {
				for i := 0; i < liveMembers; i++ {
					add(op{kind: opVisProbe, due: probeNext, id: id, member: uint8(i)})
				}
			} else {
				k := uint64(r.probeRNG.intn(r.spec.keys))
				add(op{kind: opReadProbe, due: probeNext, id: id, key: k,
					member: uint8(probeSeq % liveMembers)})
			}
			probeNext += int64(probePeriod)
		}
		postAt := r.now()
		rec := r.genRec.Load()
		for i, b := range pending {
			if b == nil {
				continue
			}
			pending[i] = nil
			b.posted = postAt
			adds := 0
			for j := range b.ops {
				if b.ops[j].kind == opAdd {
					adds++
				}
				if rec {
					r.genLate.record(postAt - b.ops[j].due)
				}
			}
			if rec {
				r.genOps += uint64(len(b.ops))
				r.genPosts++
			}
			// Count the adds as posted before the pump can apply them, so
			// a visibility probe never sees more applied than posted.
			r.posted.Add(uint64(adds))
			sent[i] += uint64(len(b.ops))
			b.ml.m.Fabric.Post(b.run)
		}
		next = next.Add(genTick)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		} else if d < -10*time.Millisecond {
			next = time.Now() // fell far behind: do not burst to catch up
		}
	}
}

// boundary is one window edge: each member's window counters (then reset),
// counter sums, and registry snapshot, each read on that member's pump.
type boundary struct {
	at    time.Time
	win   []*winStats
	sums  []uint64
	snaps []obs.Snapshot
	hist  *stats.Histogram // chain write latency gained since the last boundary
	ctrl  obs.Snapshot
	usage cpuMem
}

func (r *liveRun) boundary() boundary {
	bd := boundary{hist: stats.NewHistogram()}
	for _, ml := range r.loads {
		ml := ml
		var (
			ws   *winStats
			sum  uint64
			snap obs.Snapshot
		)
		ml.m.Fabric.Call(func() {
			ws = ml.win
			ml.win = &winStats{}
			for k := uint64(0); k < counterKeys; k++ {
				sum += ml.m.Counter.Sum(k)
			}
			snap = ml.reg.Snapshot()
			cur := ml.m.Strong.Node().WriteLatency()
			bd.hist.AddDelta(cur, ml.histPrev)
			ml.histPrev.CopyFrom(cur)
		})
		bd.win = append(bd.win, ws)
		bd.sums = append(bd.sums, sum)
		bd.snaps = append(bd.snaps, snap)
	}
	r.c.ctrl.Call(func() { bd.ctrl = r.ctrlReg.Snapshot() })
	bd.at = time.Now()
	bd.usage = readCPUMem()
	return bd
}

// add folds o's counts and distributions into w.
func (w *winStats) add(o *winStats) {
	w.commits += o.commits
	w.reads += o.reads
	w.adds += o.adds
	w.lat.merge(&o.lat)
	w.rlat.merge(&o.rlat)
	w.applyLat.merge(&o.applyLat)
	w.visLag.merge(&o.visLag)
	w.pumpWait.merge(&o.pumpWait)
	w.writeCall.merge(&o.writeCall)
}

// window aggregates what happened between two boundaries: every member's
// pump counts plus the registry deltas.
type window struct {
	winStats
	secs    float64
	visible uint64 // adds visible at every member
	hist    *stats.Histogram
	counts  map[string]float64 // registry deltas summed over nodes
	usage   cpuMem
}

func makeWindow(a, b boundary) *window {
	w := &window{secs: b.at.Sub(a.at).Seconds(), hist: b.hist, usage: b.usage.sub(a.usage),
		counts: map[string]float64{}}
	minA, minB := a.sums[0], b.sums[0]
	for i, ws := range b.win {
		w.winStats.add(ws)
		w.addCounts(b.snaps[i].Diff(a.snaps[i]))
		minA, minB = min(minA, a.sums[i]), min(minB, b.sums[i])
	}
	w.addCounts(b.ctrl.Diff(a.ctrl))
	w.visible = minB - minA
	return w
}

func (w *window) addCounts(d obs.Snapshot) {
	for _, s := range d.Samples {
		w.counts[s.Name] += s.Value
	}
}

// mergeWindows joins consecutive windows into one.
func mergeWindows(ws []*window) *window {
	m := &window{hist: stats.NewHistogram(), counts: map[string]float64{}}
	for _, w := range ws {
		m.winStats.add(&w.winStats)
		m.visible += w.visible
		m.secs += w.secs
		m.usage.cpu += w.usage.cpu
		m.usage.mallocs += w.usage.mallocs
		m.hist.Merge(w.hist)
		for k, v := range w.counts {
			m.counts[k] += v
		}
	}
	return m
}

// measure runs for total, cut into sub-windows of about subWindow each.
func (r *liveRun) measure(total time.Duration) []*window {
	n := max(1, int(total/subWindow))
	step := total / time.Duration(n)
	prev := r.boundary()
	start := prev.at
	ws := make([]*window, 0, n)
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * step)))
		b := r.boundary()
		ws = append(ws, makeWindow(prev, b))
		prev = b
	}
	return ws
}

// ops is the window's completed-op count: committed writes, plus reads on
// sro-paced, or adds visible at every member on ewo-stream.
func (w *window) ops(spec liveSpec) float64 {
	if spec.kind == opAdd {
		return float64(w.visible)
	}
	return float64(w.commits + w.reads)
}

func runLive(name string, spec liveSpec, o options, rep *report) error {
	var (
		c      *liveCluster
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		var err error
		if c, err = bootLive(o.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.stop()
	rep.set("setup_s", median(setups))

	r := newLiveRun(spec, o, c)
	genDone := make(chan struct{})
	go r.generate(genDone)
	time.Sleep(warmup)

	measure := o.seconds
	if o.trace {
		measure /= 2
	}
	r.genRec.Store(!o.trace)
	plain := r.measure(measure)
	reportLiveEndToEnd(rep, spec, plain)

	if o.trace {
		prof, err := startProfile()
		if err != nil {
			return err
		}
		r.tracing.Store(true)
		r.genRec.Store(true)
		traced := r.measure(measure)
		r.tracing.Store(false)
		r.genRec.Store(false)
		shares, err := prof.stop(o.artifact(name, "cpu.pprof"))
		if err != nil {
			return err
		}
		r.stop.Store(true)
		<-genDone
		reportLiveLayers(rep, spec, mergeWindows(plain), mergeWindows(traced), r)
		reportShares(rep, shares)
		tracers := make([]*obs.Tracer, len(r.loads))
		for i, ml := range r.loads {
			tracers[i] = ml.spans
		}
		rep.set("trace.spans", float64(spanCount(tracers)))
		if err := writeSpans(o.artifact(name, "spans.json"), tracers); err != nil {
			return err
		}
	} else {
		r.stop.Store(true)
		<-genDone
	}
	r.drainAndCheck(rep)
	var sent, recv, decodeErr uint64
	for _, f := range append([]*live.Fabric{c.ctrl}, fabrics(c)...) {
		st := f.Node().Stats()
		sent, recv, decodeErr = sent+st.Sent, recv+st.Received, decodeErr+st.DecodeErr
	}
	if o.trace {
		rep.set("live.rx_drop_ratio", (float64(sent)-float64(recv))/float64(sent))
		rep.set("live.decode_err", float64(decodeErr))
	}
	if decodeErr > 0 {
		rep.fail("%d datagrams failed to decode on a loss-free loopback", decodeErr)
	}
	rep.set("runtime.peak_rss_mb", peakRSSMB())
	return nil
}

func fabrics(c *liveCluster) []*live.Fabric {
	out := make([]*live.Fabric, len(c.members))
	for i, m := range c.members {
		out[i] = m.Fabric
	}
	return out
}

func reportLiveEndToEnd(rep *report, spec liveSpec, ws []*window) {
	rep.set("ops_per_s", bestQuartile(ws, true, func(w *window) float64 { return w.ops(spec) / w.secs }))
	rep.set("cpu_us_per_op", bestQuartile(ws, false, func(w *window) float64 { return w.usage.cpu.Seconds() * 1e6 / w.ops(spec) }))
	rep.set("runtime.allocs_per_op", bestQuartile(ws, false, func(w *window) float64 { return float64(w.usage.mallocs) / w.ops(spec) }))
	rep.set("read_latency_p99_us", bestQuartile(ws, false, func(w *window) float64 { return w.rlat.quantileUS(0.99) }))
	all := mergeWindows(ws)
	rep.set("gen.read_samples", float64(all.rlat.n))
	if spec.kind == opAdd {
		rep.set("latency_p50_us", bestQuartile(ws, false, func(w *window) float64 { return w.visLag.quantileUS(0.5) }))
		rep.set("latency_p99_us", bestQuartile(ws, false, func(w *window) float64 { return w.applyLat.quantileUS(0.99) }))
		rep.set("gen.latency_samples", float64(all.visLag.n))
	} else {
		rep.set("latency_p50_us", bestQuartile(ws, false, func(w *window) float64 { return w.lat.quantileUS(0.5) }))
		rep.set("latency_p99_us", bestQuartile(ws, false, func(w *window) float64 { return w.lat.quantileUS(0.99) }))
		rep.set("gen.latency_samples", float64(all.lat.n))
	}
}

func reportLiveLayers(rep *report, spec liveSpec, plain, w *window, r *liveRun) {
	ops := w.ops(spec)
	plainRate, plainCPU := plain.ops(spec)/plain.secs, plain.usage.cpu.Seconds()/plain.ops(spec)
	rep.set("trace.overhead_pct", 100*(plainRate-ops/w.secs)/plainRate)
	rep.set("trace.cpu_overhead_pct", 100*(w.usage.cpu.Seconds()/ops-plainCPU)/plainCPU)
	rep.set("gen.late_p99_us", r.genLate.quantileUS(0.99))
	rep.set("gen.ops_per_post", float64(r.genOps)/float64(r.genPosts))
	rep.set("live.pump_wait_p50_us", w.pumpWait.quantileUS(0.5))
	rep.set("live.pump_wait_p99_us", w.pumpWait.quantileUS(0.99))
	rep.set("live.pump_rounds_per_op", w.counts["live.fabric.pumps"]/ops)
	dgrams := w.counts["live.tx.msgs"]
	rep.set("live.datagrams_per_op", dgrams/ops)
	rep.set("live.msgs_per_datagram", w.counts["live.fabric.egress"]/dgrams)
	rep.set("live.bytes_per_op", w.counts["live.tx.bytes"]/ops)
	events := w.counts["bench.events"]
	rep.set("sim.events_per_op", events/ops)
	rep.set("sim.events_per_s", events/w.secs)
	sent := w.counts["bench.netem_sent"]
	rep.set("netem.msgs_per_op", sent/ops)
	rep.set("netem.drop_ratio", w.counts["bench.netem_dropped"]/sent)
	rep.set("pisa.ctrl_ops_per_op", w.counts["bench.ctrl_ops"]/ops)
	rep.set("pisa.msgs_handled_per_op", w.counts["bench.msgs_handled"]/ops)
	if c := w.counts["chain.writes_committed"]; c > 0 {
		rep.set("chain.retries_per_commit", w.counts["chain.retries"]/c)
	}
	fwd := w.counts["bench.reads_forwarded"]
	if rd := fwd + w.counts["bench.reads_local"]; rd > 0 {
		rep.set("chain.reads_forwarded_ratio", fwd/rd)
	}
	rep.set("chain.write_call_p50_ns", w.writeCall.quantile(0.5))
	rep.set("chain.commit_hist_p99_us", w.hist.Quantile(0.99)/1e3)
	if spec.kind == opAdd {
		rep.set("ewo.updates_per_add", w.counts["ewo.updates_sent"]/float64(w.adds))
		rep.set("ewo.entries_merged_per_add", w.counts["ewo.entries_merged"]/float64(w.adds))
		rep.set("ewo.visibility_p99_us", w.visLag.quantileUS(0.99))
	}
	rep.set("ewo.sync_bytes_per_s", w.counts["ewo.sync_bytes"]/w.secs)
}

// drainAndCheck waits for every issued op to resolve and EWO state to
// converge, then runs the explore oracles over the members' state, as
// livecluster.Soak does: committed-write durability, exact counter totals,
// and digest convergence.
func (r *liveRun) drainAndCheck(rep *report) {
	var expectTotal uint64
	for _, e := range r.expected {
		expectTotal += e
	}
	deadline := time.Now().Add(drainTimeout)
	for {
		settled := true
		var digests []string
		for _, ml := range r.loads {
			ml := ml
			ml.m.Fabric.Call(func() {
				if ml.outW+ml.outR > 0 {
					settled = false
				}
				var sum uint64
				for k := uint64(0); k < counterKeys; k++ {
					sum += ml.m.Counter.Sum(k)
				}
				if sum != expectTotal {
					settled = false
				}
				digests = append(digests, explore.RenderDigest(ml.m.Counter.Node().StateDigest())+
					explore.RenderDigest(ml.m.LWW.Node().StateDigest()))
			})
		}
		for _, d := range digests[1:] {
			if d != digests[0] {
				settled = false
			}
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	var committed []uint64
	chainViews := make([]explore.ChainView, len(r.loads))
	ctrViews := make([]explore.EWOView, len(r.loads))
	lwwViews := make([]explore.EWOView, len(r.loads))
	var attempted, failed, maxMissing uint64
	for _, ml := range r.loads {
		for k, ok := range ml.committed {
			if ok {
				committed = append(committed, uint64(k))
			}
		}
		attempted += ml.issued
		failed += ml.failed
	}
	for i, ml := range r.loads {
		ml := ml
		strong := map[uint64]bool{}
		var sums [counterKeys]uint64
		var ctrDig, lwwDig map[uint64]string
		var missing uint64
		ml.m.Fabric.Call(func() {
			failed += uint64(ml.outW + ml.outR)
			for _, k := range committed {
				_, ok := ml.m.Strong.Node().Get(k)
				strong[k] = ok
			}
			for k := range sums {
				sums[k] = ml.m.Counter.Sum(uint64(k))
				if sums[k] < r.expected[k] {
					missing += r.expected[k] - sums[k]
				}
			}
			ctrDig = ml.m.Counter.Node().StateDigest()
			lwwDig = ml.m.LWW.Node().StateDigest()
		})
		maxMissing = max(maxMissing, missing)
		name := fmt.Sprintf("member %d", i)
		chainViews[i] = explore.ChainView{Name: name, Get: func(k uint64) ([]byte, bool) { return nil, strong[k] }}
		ctrViews[i] = explore.EWOView{Name: name, Sum: func(k uint64) uint64 { return sums[k] },
			Digest: func() map[uint64]string { return ctrDig }}
		lwwViews[i] = explore.EWOView{Name: name, Digest: func() map[uint64]string { return lwwDig }}
	}
	if r.spec.kind == opAdd {
		attempted += r.posted.Load()
		failed += maxMissing
	}
	attempted += r.shed
	failed += r.shed
	rep.attempted, rep.failed = int64(attempted), int64(failed)
	for _, f := range explore.OracleDurability(committed, chainViews) {
		rep.fail("durability: %s", f)
	}
	for _, f := range explore.OracleCounterTotals(r.expected[:], ctrViews) {
		rep.fail("counter: %s", f)
	}
	for _, f := range explore.OracleConvergence(ctrViews) {
		rep.fail("counter: %s", f)
	}
	for _, f := range explore.OracleConvergence(lwwViews) {
		rep.fail("lww: %s", f)
	}
	if len(committed) == 0 && r.spec.kind != opAdd {
		rep.fail("no SRO write committed")
	}
}
