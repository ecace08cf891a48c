package main

import (
	"math"
	"sort"
)

// rng is splitmix64: tiny, fast, and the same sequence on every platform, so
// one --seed names one op sequence.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 11) % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with mean 1 (Poisson inter-arrivals).
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// zipf draws keys in [0, n) with P(k) proportional to 1/(k+1)^s. Unlike
// math/rand.Zipf it accepts s <= 1 (the workloads use 0.99).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) uint64 {
	u := r.float()
	return uint64(sort.SearchFloat64s(z.cdf, u))
}

// Op kinds handed to a member's pump.
const (
	opWrite      uint8 = iota // SRO write, latency to the commit callback
	opRead                    // SRO linearizable read, latency to the read callback
	opAdd                     // EWO counter add (delta 1)
	opReadProbe               // 1 kHz SRO read probe (sro-window)
	opVisProbe                // 1 kHz EWO visibility probe (ewo-stream)
	opOpenWindow              // start a member's closed-loop writer window
)

// op is one generated operation. due is nanoseconds since the run's time
// base: the moment an open-loop op should have been sent.
type op struct {
	due    int64
	id     uint64
	key    uint64
	val    uint64
	member uint8
	kind   uint8
}

// arrivals is an open-loop Poisson op source: rate ops/s spread uniformly
// over members, a readFrac share of them reads, keys uniform over keys or
// Zipf-distributed when z is set.
type arrivals struct {
	r        *rng
	rate     float64
	members  int
	keys     int
	z        *zipf
	write    uint8 // op kind for the non-read share
	readFrac float64
	t        float64 // next due, seconds since start
	start    int64
	seq      uint64
}

func newArrivals(seed int64, start int64, rate float64, members, keys int, z *zipf, write uint8, readFrac float64) *arrivals {
	a := &arrivals{r: newRNG(seed, 1), rate: rate, members: members, keys: keys, z: z,
		write: write, readFrac: readFrac, start: start}
	a.t = a.r.exp() / rate
	return a
}

// peek returns the due time of the next op.
func (a *arrivals) peek() int64 { return a.start + int64(a.t*1e9) }

// next returns the next op and advances the source.
func (a *arrivals) next() op {
	a.seq++
	o := op{due: a.peek(), id: a.seq, member: uint8(a.r.intn(a.members)), kind: a.write}
	if a.readFrac > 0 && a.r.float() < a.readFrac {
		o.kind = opRead
	}
	if a.z != nil {
		o.key = a.z.draw(a.r)
	} else {
		o.key = uint64(a.r.intn(a.keys))
	}
	o.val = a.r.next()
	a.t += a.r.exp() / a.rate
	return o
}

// keySource is a closed-loop writer's key/value source, one per member, so
// the sequence each member issues depends only on the seed.
type keySource struct {
	r    *rng
	keys int
}

func newKeySource(seed int64, member, keys int) *keySource {
	return &keySource{r: newRNG(seed, uint64(100+member)), keys: keys}
}

func (k *keySource) next() (key, val uint64) {
	return uint64(k.r.intn(k.keys)), k.r.next()
}
