package ewo

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

// refCounter is the reference G/PN-counter model the row/column layout is
// checked against: plain nested maps, key -> owner -> slot, with the merge
// rules spelled out directly.
type refCounter struct {
	pn       bool
	keys     map[uint64]bool
	inc, dec map[uint64]map[uint16]uint64
}

func newRefCounter(pn bool) *refCounter {
	return &refCounter{
		pn:   pn,
		keys: map[uint64]bool{},
		inc:  map[uint64]map[uint16]uint64{},
		dec:  map[uint64]map[uint16]uint64{},
	}
}

func (m *refCounter) slots(isDec bool, key uint64) map[uint16]uint64 {
	vec := m.inc
	if isDec {
		vec = m.dec
	}
	s, ok := vec[key]
	if !ok {
		s = map[uint16]uint64{}
		vec[key] = s
	}
	return s
}

func (m *refCounter) bump(isDec bool, key uint64, owner uint16, delta uint64) {
	m.keys[key] = true
	m.slots(isDec, key)[owner] += delta
}

// merge applies one entry. A decrement mark on a plain counter is discarded
// before the key is touched; anything else makes the key known, merged or
// not.
func (m *refCounter) merge(e wire.EWOEntry) {
	isDec := e.Value[0] == 1
	if isDec && !m.pn {
		return
	}
	m.keys[e.Key] = true
	s := m.slots(isDec, e.Key)
	if v := uint64(e.Stamp.Time); v > s[uint16(e.Stamp.Node)] {
		s[uint16(e.Stamp.Node)] = v
	}
}

func (m *refCounter) sum(key uint64) uint64 {
	var t uint64
	for _, v := range m.inc[key] {
		t += v
	}
	for _, v := range m.dec[key] {
		t -= v
	}
	return t
}

func (m *refCounter) digest() map[uint64]string {
	out := map[uint64]string{}
	for k := range m.keys {
		out[k] = fmt.Sprintf("%d", m.sum(k))
	}
	return out
}

// walk is one full sync pass: keys ascending, then per key every non-zero
// increment slot by owner address, then every non-zero decrement slot.
func (m *refCounter) walk() []wire.EWOEntry {
	keys := make([]uint64, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out []wire.EWOEntry
	for _, k := range keys {
		for _, isDec := range []bool{false, true} {
			s := m.inc[k]
			if isDec {
				s = m.dec[k]
			}
			owners := make([]uint16, 0, len(s))
			for o, v := range s {
				if v != 0 {
					owners = append(owners, o)
				}
			}
			slices.Sort(owners)
			for _, o := range owners {
				out = append(out, counterEntry(k, o, s[o], isDec))
			}
		}
	}
	return out
}

// fullWalk drives the node's sync walk through exactly one complete pass.
func fullWalk(n *Node) []wire.EWOEntry {
	n.syncCursor = len(n.syncKeys)
	var out []wire.EWOEntry
	for {
		out = n.syncWindow(out)
		if n.syncCursor >= len(n.syncKeys) {
			return out
		}
	}
}

func sameEntries(a, b []wire.EWOEntry) bool {
	return slices.EqualFunc(a, b, func(x, y wire.EWOEntry) bool {
		return x.Key == y.Key && x.Stamp == y.Stamp && bytes.Equal(x.Value, y.Value)
	})
}

func checkAgainstModel(t *testing.T, n *Node, m *refCounter, probe []uint64, step int) {
	t.Helper()
	if n.Keys() != len(m.keys) {
		t.Fatalf("step %d: Keys() = %d, model has %d", step, n.Keys(), len(m.keys))
	}
	for _, k := range probe {
		if got, want := n.Sum(k), m.sum(k); got != want {
			t.Fatalf("step %d: Sum(%d) = %d, model %d", step, k, got, want)
		}
	}
	if got, want := n.StateDigest(), m.digest(); !digestEqual(got, want) {
		t.Fatalf("step %d: StateDigest diverged:\n got %v\nwant %v", step, got, want)
	}
	if got, want := fullWalk(n), m.walk(); !sameEntries(got, want) {
		t.Fatalf("step %d: sync walk diverged:\n got %v\nwant %v", step, got, want)
	}
}

// TestCounterLayoutMatchesReference runs random Add/Sub/merge sequences
// against the reference model: sparse keys far beyond Capacity, owners that
// first appear after rows exist (below, between and above the known ones),
// stale, duplicate and zero-valued entries, and decrement marks arriving at
// a plain Counter. Sum, Keys, StateDigest and the sync walk must all match.
func TestCounterLayoutMatchesReference(t *testing.T) {
	const self = 5
	for _, kind := range []Kind{Counter, PNCounter} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := mkIsolated(t, kind, self)
			m := newRefCounter(kind == PNCounter)
			keyPool := []uint64{0, 1, 7, uint64(n.cfg.Capacity), uint64(n.cfg.Capacity) + 3, 1 << 40, 1<<64 - 1}
			for i := 0; i < 8; i++ {
				keyPool = append(keyPool, rng.Uint64())
			}
			owners := []uint16{3, self, 9}
			late := []uint16{1, 7, 200, 4}
			var sent []wire.EWOEntry
			for step := 0; step < 400; step++ {
				if step%80 == 79 && len(late) > 0 {
					owners = append(owners, late[0])
					late = late[1:]
				}
				key := keyPool[rng.Intn(len(keyPool))]
				switch op := rng.Intn(10); {
				case op < 3:
					d := uint64(rng.Intn(5))
					n.Add(key, d)
					m.bump(false, key, self, d)
				case op < 4 && kind == PNCounter:
					d := uint64(rng.Intn(3))
					n.Sub(key, d)
					m.bump(true, key, self, d)
				case op < 6 && len(sent) > 0:
					// Duplicate or stale redelivery of an earlier entry.
					e := sent[rng.Intn(len(sent))]
					n.merge(&e)
					m.merge(e)
				default:
					isDec := rng.Intn(3) == 0
					owner := owners[rng.Intn(len(owners))]
					s := m.inc[key][owner]
					if isDec {
						s = m.dec[key][owner]
					}
					var v uint64
					switch rng.Intn(4) {
					case 0:
						v = s / 2 // stale (zero when the slot is empty)
					default:
						v = s + uint64(rng.Intn(6))
					}
					e := counterEntry(key, owner, v, isDec)
					sent = append(sent, e)
					n.merge(&e)
					m.merge(e)
				}
				if step%25 == 24 {
					checkAgainstModel(t, n, m, keyPool, step)
				}
			}
			checkAgainstModel(t, n, m, keyPool, 400)
			if !slices.ContainsFunc(n.rowKeys, func(k uint64) bool { return k >= uint64(n.cfg.Capacity) }) {
				t.Fatalf("%v seed %d: no key >= Capacity was exercised", kind, seed)
			}
		}
	}
}

// TestEqualStateMarshalsIdentically: two nodes that reach the same state
// along different paths (different merge orders, owners first seen in
// different orders) emit byte-identical sync updates. The walk's owner order
// is canonical, not an accident of insertion.
func TestEqualStateMarshalsIdentically(t *testing.T) {
	for _, kind := range []Kind{Counter, PNCounter} {
		var entries []wire.EWOEntry
		for k := uint64(0); k < 40; k++ {
			for _, owner := range []uint16{9, 2, 6, 4, 1} {
				entries = append(entries, counterEntry(k*1000, owner, k+uint64(owner), false))
				if kind == PNCounter && owner%2 == 0 {
					entries = append(entries, counterEntry(k*1000, owner, k+1, true))
				}
			}
		}
		a := mkIsolated(t, kind, 4)
		b := mkIsolated(t, kind, 4)
		for i := range entries {
			a.merge(&entries[i])
		}
		perm := rand.New(rand.NewSource(3)).Perm(len(entries))
		for _, i := range perm {
			b.merge(&entries[i])
		}
		wa, wb := fullWalk(a), fullWalk(b)
		if len(wa) != len(entries) {
			t.Fatalf("%v: walk has %d entries, want %d", kind, len(wa), len(entries))
		}
		ua := &wire.EWOUpdate{Reg: 1, From: 4, Sync: true, Entries: wa}
		ub := &wire.EWOUpdate{Reg: 1, From: 4, Sync: true, Entries: wb}
		if !bytes.Equal(wire.Marshal(ua), wire.Marshal(ub)) {
			t.Fatalf("%v: equal state marshals differently", kind)
		}
	}
}

// TestWarmMergeAllocBudget: merging into a known key and owner allocates
// nothing — one row lookup, an owner scan, a max.
func TestWarmMergeAllocBudget(t *testing.T) {
	n := mkIsolated(t, PNCounter, 1)
	for k := uint64(0); k < 64; k++ {
		for owner := uint16(1); owner <= 4; owner++ {
			e := counterEntry(k, owner, 1, owner%2 == 0)
			n.merge(&e)
		}
	}
	e := counterEntry(17, 3, 1, false)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Stamp.Time++
		n.merge(&e)
	})
	if allocs != 0 {
		t.Fatalf("warm merge allocates %v per op, want 0", allocs)
	}
}

// TestWarmSumAllocBudget: a counter read allocates nothing.
func TestWarmSumAllocBudget(t *testing.T) {
	n := mkIsolated(t, PNCounter, 1)
	for k := uint64(0); k < 64; k++ {
		n.Add(k, 3)
		n.Sub(k, 1)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += n.Sum(17) + n.Sum(1<<50)
	})
	if allocs != 0 {
		t.Fatalf("warm Sum allocates %v per op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("Sum returned nothing")
	}
}

// TestLWWRowsShareIndex: LWW cells sit under the same row index, keys are
// unbounded by Capacity, Read returns the merged winner, and the sync walk
// carries one entry per key in key order.
func TestLWWRowsShareIndex(t *testing.T) {
	n := mkIsolated(t, LWW, 1)
	keys := []uint64{1 << 60, 3, uint64(n.cfg.Capacity) * 2, 0}
	for i, k := range keys {
		n.Write(k, []byte{byte(i)})
	}
	late := wire.EWOEntry{Key: 3, Stamp: timesync.Stamp{Time: sim.Time(1 << 40), Node: 9}, Value: []byte{42}}
	n.merge(&late)
	stale := wire.EWOEntry{Key: 3, Stamp: timesync.Stamp{Time: 0, Node: 0}, Value: []byte{7}}
	n.merge(&stale)
	if n.Keys() != len(keys) {
		t.Fatalf("Keys() = %d, want %d", n.Keys(), len(keys))
	}
	if v, ok := n.Read(3); !ok || !bytes.Equal(v, []byte{42}) {
		t.Fatalf("Read(3) = %v, %v; want the merged winner [42]", v, ok)
	}
	if _, ok := n.Read(99); ok {
		t.Fatal("Read of an unknown key reported a value")
	}
	w := fullWalk(n)
	if len(w) != len(keys) || !slices.IsSortedFunc(w, func(a, b wire.EWOEntry) int {
		return cmp.Compare(a.Key, b.Key)
	}) {
		t.Fatalf("LWW walk = %v, want one entry per key in key order", w)
	}
}
