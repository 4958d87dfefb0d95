package mac

import (
	"fmt"
	"testing"

	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// channelIndex is an exact AudibilityIndex over a fakeChannel: it marks
// every registered node whose pair SNR reaches AudibleFloorDB, and knows
// only the nodes registered so far — exactly the bitmap a sound spatial
// index builds when a PPDU goes on air.
type channelIndex struct {
	ch    *fakeChannel
	nodes []*Node
}

func (ix *channelIndex) Register(n *Node) { ix.nodes = append(ix.nodes, n) }

func (ix *channelIndex) Unregister(n *Node) {
	for i, x := range ix.nodes {
		if x == n {
			ix.nodes = append(ix.nodes[:i], ix.nodes[i+1:]...)
			return
		}
	}
}

func (ix *channelIndex) MarkAudible(tx *Node, bitmap []uint64) {
	for _, n := range ix.nodes {
		if n != tx && ix.ch.SenseSNRdB(tx, n) >= AudibleFloorDB {
			bitmap[n.Seq()>>6] |= 1 << (n.Seq() & 63)
		}
	}
}

// countingChannel counts SenseSNRdB probes of pairs with no channel
// entry — the probes a sound audibility gate never needs to make.
type countingChannel struct {
	*fakeChannel
	silentProbes int
}

func (c *countingChannel) SenseSNRdB(tx, rx *Node) float64 {
	if _, ok := c.snr[[2]*Node{tx, rx}]; !ok {
		c.silentProbes++
	}
	return c.fakeChannel.SenseSNRdB(tx, rx)
}

// TestMediumGateSkipsClearedPairs: with an index installed, carrier
// sense never probes a pair the PPDU's bitmap cleared; without one, it
// does.
func TestMediumGateSkipsClearedPairs(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		loop := sim.NewLoop()
		ch := &countingChannel{fakeChannel: newFakeChannel()}
		m := NewMedium(loop, ch, sim.NewRNG(40))
		if indexed {
			m.SetAudibilityIndex(&channelIndex{ch: ch.fakeChannel})
		}
		a, b, far := node("a", nil), node("b", &collector{}), node("far", nil)
		ch.set(a, b, 30)
		m.Register(a)
		m.Register(b)
		m.Register(far)
		m.Transmit(dataTx(a, b.Addr, 2, phy.Rates[4]))
		loop.At(sim.Time(100*sim.Microsecond), func() {
			if m.busyUntil(b) <= loop.Now() {
				t.Errorf("indexed=%v: b does not sense a's PPDU", indexed)
			}
			m.busyUntil(far)
		})
		loop.Run(sim.Time(20 * sim.Millisecond))
		// (simcheck builds re-probe every skipped pair on purpose.)
		if indexed && !gateCheck && ch.silentProbes != 0 {
			t.Errorf("gate probed %d silent pairs", ch.silentProbes)
		}
		if !indexed && ch.silentProbes == 0 {
			t.Error("index-free medium never probed the silent pair; the check is vacuous")
		}
	}
}

// TestMediumGateLateRegistration: a node registered while a PPDU is on
// air is not in that PPDU's bitmap, yet must still receive it, sense it
// busy, and have its own receptions collided by it.
func TestMediumGateLateRegistration(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(41))
	m.SetAudibilityIndex(&channelIndex{ch: ch})
	rx := &collector{}
	a, c, late := node("a", nil), node("c", nil), node("late", rx)
	ch.set(a, late, 25)
	ch.set(c, late, 25) // a and c are hidden from each other
	m.Register(a)
	m.Register(c)

	first := dataTx(a, late.Addr, 2, phy.Rates[0])
	m.Transmit(first)
	loop.At(sim.Time(100*sim.Microsecond), func() { m.Register(late) })
	loop.At(sim.Time(150*sim.Microsecond), func() {
		if bu := m.busyUntil(late); bu < first.End {
			t.Errorf("late node senses the channel free at %v; a's PPDU is on air until %v", bu, first.End)
		}
	})
	loop.At(sim.Time(200*sim.Microsecond), func() {
		m.Transmit(dataTx(c, late.Addr, 1, phy.Rates[0]))
	})
	loop.Run(sim.Time(20 * sim.Millisecond))

	got := map[*Node]Detection{}
	for i, f := range rx.frames {
		got[f.Tx] = rx.dets[i]
	}
	if _, ok := got[a]; !ok {
		t.Error("late node never received the PPDU that was on air when it registered")
	}
	if det, ok := got[c]; !ok {
		t.Error("late node never received c's frame")
	} else if !det.Collided {
		t.Error("c's frame survived at the late node despite a's overlapping PPDU at equal power")
	}
}

// TestMediumGateCompaction: renumbering the medium's seqs while a PPDU
// is on air must not let its stale bitmap skip (or double-visit) a
// receiver. Odd receivers hear the transmitter, even ones do not; the
// unregistered prefix has odd length, so a stale bitmap would read every
// survivor's bit from a neighbour of the opposite parity.
func TestMediumGateCompaction(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(42))
	m.SetAudibilityIndex(&channelIndex{ch: ch})
	a := node("a", nil)
	m.Register(a)
	var rxs []*Node
	var cols []*collector
	for i := 0; i < 300; i++ {
		col := &collector{}
		n := node(fmt.Sprintf("r%d", i), col)
		if i%2 == 1 {
			ch.set(a, n, 30)
		}
		m.Register(n)
		rxs = append(rxs, n)
		cols = append(cols, col)
	}
	m.Transmit(dataTx(a, Broadcast, 2, phy.Rates[4]))
	loop.At(sim.Time(50*sim.Microsecond), func() {
		for _, n := range rxs[:151] {
			m.Unregister(n)
		}
		if len(m.bySeq) != 150 {
			t.Fatalf("bySeq has %d slots after unregistering 151 of 301 nodes; compaction did not run", len(m.bySeq))
		}
	})
	loop.Run(sim.Time(20 * sim.Millisecond))

	for i := 151; i < 300; i++ {
		want := 0
		if i%2 == 1 {
			want = 1
		}
		if got := len(cols[i].frames); got != want {
			t.Errorf("survivor r%d received %d deliveries, want %d", i, got, want)
		}
	}
}

// TestMediumGateSpan: a bitmap is trusted only for AudibilitySpan after
// its PPDU starts; later probes fall back to the channel. A pair that
// becomes audible past the span is therefore still sensed busy and
// delivered to by a PPDU longer than the span, and a short PPDU still
// collides a long frame it overlapped if the pair is audible when that
// frame ends.
func TestMediumGateSpan(t *testing.T) {
	setup := func() (*sim.Loop, *fakeChannel, *Medium, *collector, *Node, *Node, *Node) {
		loop := sim.NewLoop()
		ch := newFakeChannel()
		m := NewMedium(loop, ch, sim.NewRNG(43))
		m.SetAudibilityIndex(&channelIndex{ch: ch})
		rx := &collector{}
		a, c, b := node("a", nil), node("c", nil), node("b", rx)
		ch.set(c, b, 25) // a and b start out of range of each other
		m.Register(a)
		m.Register(c)
		m.Register(b)
		return loop, ch, m, rx, a, c, b
	}
	late := sim.Time(AudibilitySpan + sim.Millisecond)

	t.Run("long PPDU", func(t *testing.T) {
		loop, ch, m, rx, a, _, b := setup()
		long := dataTx(a, b.Addr, 16, phy.Rates[0])
		m.Transmit(long)
		if long.End <= late {
			t.Fatalf("PPDU ends at %v, before the pair becomes audible at %v", long.End, late)
		}
		loop.At(late, func() {
			ch.set(a, b, 30)
			if bu := m.busyUntil(b); bu < long.End {
				t.Errorf("b senses the channel free until %v; a's PPDU is on air until %v", bu, long.End)
			}
		})
		loop.Run(sim.Time(100 * sim.Millisecond))
		if len(rx.frames) != 1 {
			t.Errorf("b received %d frames, want a's PPDU", len(rx.frames))
		}
	})

	t.Run("short interferer", func(t *testing.T) {
		loop, ch, m, rx, a, c, b := setup()
		m.Transmit(dataTx(a, Broadcast, 1, phy.Rates[7]))
		victim := dataTx(c, b.Addr, 16, phy.Rates[0])
		loop.At(sim.Time(10*sim.Microsecond), func() { m.Transmit(victim) })
		loop.At(late, func() { ch.set(a, b, 30) })
		loop.Run(sim.Time(100 * sim.Millisecond))
		if victim.End <= late {
			t.Fatalf("victim ends at %v, before the pair becomes audible at %v", victim.End, late)
		}
		if len(rx.dets) != 1 || !rx.dets[0].Collided {
			t.Errorf("c's frame at b: %d deliveries, want one collided by a's overlapping PPDU", len(rx.dets))
		}
	})
}
