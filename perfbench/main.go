// Command perfbench is the repository benchmark: it boots SwiShmem as
// shipped (live loopback members, or the facade simulator), drives one named
// workload for a fixed wall-clock window, checks the outputs with the
// explore oracles, and prints every metric by name with its unit. The last
// line of standard output is one JSON object; see README.md.
//
//	go run . --workload sro-window --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// traceDir holds traced-run outputs, inside the build directory the
// runner script already keeps out of version control.
const traceDir = ".bench_build/perfbench-trace"

// artifact names a traced-run output file (spans, CPU profile).
func (o options) artifact(workload, suffix string) string {
	return filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.%s", workload, o.seed, suffix))
}

// workloads lists every runnable workload. BENCHMARK.json names the ones
// the benchmark gates on (see README.md for why the open-loop pair is not
// among them).
var workloads = []string{"sro-window", "sro-paced", "ewo-stream", "sim-mixed"}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: sro-window, sro-paced, ewo-stream, sim-mixed")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1}
	if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rep := newReport()
	var err error
	if spec, ok := liveSpecs[*workload]; ok {
		err = runLive(*workload, spec, o, rep)
	} else if *workload == "sim-mixed" {
		err = runSim(*workload, o, rep)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

// cpuMem is a process CPU and allocation reading.
type cpuMem struct {
	cpu     time.Duration // user + system
	mallocs uint64
}

func readCPUMem() cpuMem {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cpuMem{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

func (a cpuMem) sub(b cpuMem) cpuMem {
	return cpuMem{cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bestQuartile is the better quartile over sub-windows of f: the upper
// quartile of a higher-is-better figure, the lower quartile otherwise. Host
// interference (vCPU steal, a neighbour's burst) only ever makes a window
// worse and tends to hit a few windows of a run, so the figure follows the
// program, not the host; a regression has to worsen most windows to show.
//
// A sub-window with nothing to measure (no ops completed, so the value is
// NaN or infinite) is left out; with none left the result is NaN.
func bestQuartile[W any](ws []W, higher bool, f func(W) float64) float64 {
	xs := make([]float64, 0, len(ws))
	for _, w := range ws {
		if x := f(w); !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, x)
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	q := 0.25
	if higher {
		q = 0.75
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
