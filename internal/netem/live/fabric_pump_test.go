package live

import (
	"net/netip"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// TestFabricIdleNoSpin pins the MaxIdle fix: a started fabric with nothing
// scheduled and no traffic must park on its wake channel instead of polling.
// The old 5ms-default idle bound burned ~50 pump rounds in 250ms; the fixed
// pump runs once at Start and then sleeps until signaled.
func TestFabricIdleNoSpin(t *testing.T) {
	f := newTestFabric(t, 9)
	f.Start()
	time.Sleep(250 * time.Millisecond)
	if n := f.FStats().PumpRounds; n > 5 {
		t.Fatalf("idle fabric ran %d pump rounds in 250ms, want <= 5 (pump is spinning)", n)
	}
}

// TestFabricMaxIdleOptIn checks that a configured MaxIdle still provides the
// periodic wake cap: with MaxIdle=20ms an idle fabric must keep waking.
func TestFabricMaxIdleOptIn(t *testing.T) {
	f, err := NewFabric(FabricConfig{Addr: 11, Seed: 11, MaxIdle: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	f.Start()
	time.Sleep(250 * time.Millisecond)
	if n := f.FStats().PumpRounds; n < 5 {
		t.Fatalf("MaxIdle=20ms fabric ran only %d pump rounds in 250ms, want >= 5", n)
	}
}

// TestFabricPumpShardsMergeOrder feeds datagrams from interleaved senders
// straight into the raw handler of a sharded fabric and checks the system
// handler observes them in exact arrival order — the keyed merge must undo
// whatever interleaving the parallel decode workers produce. The stream
// includes a coalesced batch (expands in frame order at its slot) and a
// corrupt datagram (tombstone: counted, never stalls the merge).
func TestFabricPumpShardsMergeOrder(t *testing.T) {
	f, err := NewFabric(FabricConfig{Addr: 1, Seed: 1, PumpShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)

	type rx struct {
		from netem.Addr
		seq  uint64
	}
	got := make(chan rx, 256)
	f.SetSystemHandler(func(from netem.Addr, msg wire.Msg) bool {
		hb := msg.(*wire.Heartbeat)
		got <- rx{from: from, seq: hb.Seq}
		return true
	})
	f.Start()

	src := netip.MustParseAddrPort("127.0.0.1:19")
	var want []rx
	seq := uint64(0)
	send := func(from netem.Addr, payload []byte) {
		f.onDatagram(from, src, payload)
	}
	one := func(from netem.Addr) {
		send(from, wire.Marshal(&wire.Heartbeat{From: uint16(from), Seq: seq}))
		want = append(want, rx{from: from, seq: seq})
		seq++
	}

	senders := []netem.Addr{2, 3, 4, 5, 6}
	for i := 0; i < 40; i++ {
		one(senders[i%len(senders)])
	}
	// A corrupt datagram mid-stream: consumes its arrival slot, injects
	// nothing, and must not stall everything queued behind it.
	send(3, []byte{0xff, 0xee, 0xdd})
	// A coalesced batch from one sender: expands in frame order.
	b := &wire.Batch{}
	for k := 0; k < 3; k++ {
		b.Msgs = append(b.Msgs, &wire.Heartbeat{From: 4, Seq: seq})
		want = append(want, rx{from: 4, seq: seq})
		seq++
	}
	send(4, wire.Marshal(b))
	for i := 0; i < 40; i++ {
		one(senders[(i*3)%len(senders)])
	}

	for i, w := range want {
		select {
		case g := <-got:
			if g != w {
				t.Fatalf("message %d: got from=%d seq=%d, want from=%d seq=%d",
					i, g.from, g.seq, w.from, w.seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d (of %d) never arrived", i, len(want))
		}
	}
	waitFor(t, func() bool { return f.FStats().DecodeErr == 1 })
	if n := f.FStats().SystemConsumed; n != uint64(len(want)) {
		t.Fatalf("SystemConsumed = %d, want %d", n, len(want))
	}
}

// TestFabricCoalescedExchange runs the two-fabric exchange with egress
// coalescing on: a burst of same-round sends must arrive complete and in
// order at the peer while costing fewer datagrams than messages.
func TestFabricCoalescedExchange(t *testing.T) {
	a := newTestFabric(t, 1)
	b, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	got := make(chan uint64, 64)
	a.Network().Attach(a.Addr(), func(_ netem.Addr, payload any, _ int) {
		if hb, ok := payload.(*wire.Heartbeat); ok {
			got <- hb.Seq
		}
	})
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
	a.AddRemote(b.Addr(), b.AddrPort())
	b.AddRemote(a.Addr(), a.AddrPort())
	a.Start()
	b.Start()

	const burst = 20
	b.Post(func() {
		for i := uint64(0); i < burst; i++ {
			hb := &wire.Heartbeat{From: 2, Seq: i}
			b.Network().Send(b.Addr(), a.Addr(), hb, hb.Size())
		}
	})
	for i := uint64(0); i < burst; i++ {
		select {
		case s := <-got:
			if s != i {
				t.Fatalf("heartbeat %d arrived out of order (seq %d)", i, s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("heartbeat %d never arrived", i)
		}
	}
	// The sender counts a batch after its socket write returns, so the peer
	// can see the messages first: wait for the counter, do not sample it.
	waitFor(t, func() bool { return b.FStats().EgressBatches > 0 })
	st := b.FStats()
	if st.EgressBatches >= st.EgressMsgs {
		t.Fatalf("EgressBatches=%d not below EgressMsgs=%d: nothing was coalesced",
			st.EgressBatches, st.EgressMsgs)
	}
}

// TestFabricCoalesceOverflow forces the CoalesceLimit flush path: messages
// larger than the limit allows must split across multiple datagrams, all of
// which arrive.
func TestFabricCoalesceOverflow(t *testing.T) {
	a := newTestFabric(t, 1)
	b, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: true, CoalesceLimit: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	got := make(chan uint64, 64)
	a.Network().Attach(a.Addr(), func(_ netem.Addr, payload any, _ int) {
		if hb, ok := payload.(*wire.Heartbeat); ok {
			got <- hb.Seq
		}
	})
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
	a.AddRemote(b.Addr(), b.AddrPort())
	b.AddRemote(a.Addr(), a.AddrPort())
	a.Start()
	b.Start()

	const burst = 16
	b.Post(func() {
		for i := uint64(0); i < burst; i++ {
			hb := &wire.Heartbeat{From: 2, Seq: i}
			b.Network().Send(b.Addr(), a.Addr(), hb, hb.Size())
		}
	})
	for i := uint64(0); i < burst; i++ {
		select {
		case s := <-got:
			if s != i {
				t.Fatalf("heartbeat %d arrived out of order (seq %d)", i, s)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("heartbeat %d never arrived", i)
		}
	}
	waitFor(t, func() bool { return b.FStats().EgressBatches >= 2 })
}
