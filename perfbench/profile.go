package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// The traced run takes a runtime/pprof CPU profile and charges each sample
// to one layer, so every layer's self time is measured without code inside
// the program. The profile is decoded here with a minimal protobuf reader
// (the standard library has none for profile.proto).

type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it to path, and returns each layer's share
// of the sampled CPU time in percent.
func (p *cpuProfile) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return layerShares(stacks), nil
}

// stack is one profile sample: function names from the leaf outwards and
// the sample's weight (CPU nanoseconds).
type stack struct {
	funcs  []string
	weight int64
}

// Layers a sample can be charged to. "gen" is the benchmark's own code,
// "facade" the root swishmem package, "other" anything unclassified (the
// standard library outside the socket calls, runtime helpers that are
// neither GC nor scheduling).
const (
	layerSocketRead  = "socket.read"
	layerSocketWrite = "socket.write"
	layerGC          = "runtime.gc"
	layerSched       = "runtime.sched"
	layerGen         = "gen"
	layerFacade      = "facade"
	layerOther       = "other"
)

// gcFuncs and schedFuncs are runtime functions whose time belongs to the
// garbage collector or the goroutine scheduler wherever they appear.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcDrain": true, "runtime.gcDrainN": true,
	"runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true, "runtime.markroot": true,
	"runtime.scanobject": true, "runtime.scanblock": true, "runtime.scanstack": true,
	"runtime.greyobject": true, "runtime.bgsweep": true, "runtime.sweepone": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.gcSweep": true, "runtime.deductSweepCredit": true,
	"runtime.(*mheap).reclaim": true, "runtime.wbBufFlush": true, "runtime.wbBufFlush1": true,
	"runtime.findObject": true, "runtime.markBits.setMarked": true,
}

var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.findrunnable": true,
	"runtime.park_m": true, "runtime.mcall": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.futex": true, "runtime.netpoll": true,
	"runtime.runqgrab": true, "runtime.runqsteal": true, "runtime.stealWork": true,
	"runtime.execute": true, "runtime.gogo": true, "runtime.goexit0": true,
	"runtime.gosched_m": true, "runtime.goschedImpl": true, "runtime.osyield": true,
	"runtime.usleep": true, "runtime.checkTimers": true, "runtime.runtimer": true,
	"runtime.resetspinning": true, "runtime.handoffp": true, "runtime.sysmon": true,
	"runtime.mPark": true, "runtime.semasleep": true, "runtime.semawakeup": true,
	"runtime.injectglist": true, "runtime.netpollBreak": true,
}

const modulePrefix = "swishmem/internal/"

// layerOf charges a stack (leaf first) to a layer: the first frame from the
// leaf that is a socket read/write in internal/poll, GC or scheduler work,
// a swishmem/internal/<module> function, the facade, or the benchmark. A
// nested package belongs to its top-level module (chain/ctrlplane is chain),
// except netem/live, which is the live layer.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "internal/poll."):
			if l := pollLayer(fn); l != "" {
				return l
			}
		case gcFuncs[fn]:
			return layerGC
		case schedFuncs[fn]:
			return layerSched
		case strings.HasPrefix(fn, modulePrefix):
			pkg := fn[len(modulePrefix):]
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			if pkg == "netem/live" {
				return "live"
			}
			if i := strings.IndexByte(pkg, '/'); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		case strings.HasPrefix(fn, "swishmem."):
			return layerFacade
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "swishmem/perfbench."):
			return layerGen // the command, or this package under go test
		}
	}
	return layerOther
}

// pollLayer classifies an internal/poll frame as a socket read or write
// ("" for other poll functions such as fd locking).
func pollLayer(fn string) string {
	name := fn[strings.LastIndexByte(fn, '.')+1:]
	switch {
	case strings.HasPrefix(name, "Read"), strings.HasPrefix(name, "Recv"):
		return layerSocketRead
	case strings.HasPrefix(name, "Write"), strings.HasPrefix(name, "Send"):
		return layerSocketWrite
	}
	return ""
}

// layerShares returns each layer's share of the total sample weight, in
// percent. The shares sum to 100 (empty profile: no shares).
func layerShares(stacks []stack) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range stacks {
		by[layerOf(s.funcs)] += s.weight
		total += s.weight
	}
	out := make(map[string]float64, len(by))
	if total == 0 {
		return out
	}
	for l, w := range by {
		out[l] = 100 * float64(w) / float64(total)
	}
	return out
}

// reportShares maps the layer shares onto the per-layer metric names.
func reportShares(rep *report, shares map[string]float64) {
	named := map[string]string{
		"gen": "gen.self_pct", "live": "live.self_pct", layerSocketWrite: "socket.write_pct",
		layerSocketRead: "socket.read_pct", "wire": "wire.self_pct", "sim": "sim.self_pct",
		"netem": "netem.self_pct", "pisa": "pisa.self_pct", "chain": "chain.self_pct",
		"ewo": "ewo.self_pct", "core": "core.self_pct", layerGC: "runtime.gc_pct",
		layerSched: "runtime.sched_pct",
	}
	var other float64
	for l, v := range shares {
		if m, ok := named[l]; ok {
			rep.set(m, v)
		} else {
			other += v
		}
	}
	rep.set("other.self_pct", other)
}

// parseProfile decodes a (gzipped) profile.proto into leaf-first stacks
// weighted by the last sample value (CPU nanoseconds for a CPU profile).
func parseProfile(data []byte) ([]stack, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(data, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, b)
				case 2:
					for _, x := range appendPacked(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, wt int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{weight: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// varint) or packed (length-delimited run of varints).
func appendPacked(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
