package core

import (
	"fmt"
	"strings"
	"testing"

	"wgtt/internal/csi"
	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// indexRideSignature rides two UDP clients across a three-segment corridor
// with the audibility index on or off and returns a byte-exact signature:
// what each sink saw plus the full telemetry snapshot text.
func indexRideSignature(t *testing.T, seed int64, mode DomainMode, noIndex bool) string {
	t.Helper()
	cfg := DefaultConfig(WGTT)
	cfg.Seed = seed
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Domains = mode
	cfg.Telemetry = true
	if noIndex {
		cfg.Audibility = AudibilityScan
	}
	n := MustNewNetwork(cfg)

	var sinks []*transport.UDPSink
	for i, traj := range []mobility.Trajectory{
		mobility.Drive(-5, 0, 25), mobility.Drive(-13, 0, 25),
	} {
		c := n.AddClient(traj)
		sink := transport.NewUDPSink(c.Client)
		port := uint16(9001 + 2*i)
		c.Handle(port, func(p packet.Packet) { sink.Receive(p) })
		src := transport.NewUDPSource(n.Loop, n.SendFromServer,
			packet.ServerIP, c.IP, 9000, port, 15, 1400)
		n.Loop.After(100*sim.Millisecond, src.Start)
		sinks = append(sinks, sink)
	}
	n.Run(6 * sim.Second)

	var sb strings.Builder
	for _, s := range sinks {
		fmt.Fprintf(&sb, "%d:%v;", s.Bytes, s.LossRate())
	}
	if snap := n.MetricsSnapshot(); snap != nil {
		if err := snap.WriteText(&sb); err != nil {
			t.Fatalf("telemetry snapshot: %v", err)
		}
	}
	return sb.String()
}

// TestAudibilityIndexParity pins the tentpole guarantee of the spatial
// audibility index: with the index on, every run — one shared loop,
// segment domains, seeds 1–3 — produces byte-identical delivery figures
// AND byte-identical telemetry to the brute-force all-nodes scan. The
// index is a pure prefilter; it must never change what the medium does.
func TestAudibilityIndexParity(t *testing.T) {
	if testing.Short() {
		t.Skip("four 6 s corridor rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []DomainMode{SingleLoop, DomainsSerial} {
			on := indexRideSignature(t, seed, mode, false)
			off := indexRideSignature(t, seed, mode, true)
			if on != off {
				i := 0
				for i < len(on) && i < len(off) && on[i] == off[i] {
					i++
				}
				lo := i - 30
				if lo < 0 {
					lo = 0
				}
				t.Errorf("seed %d mode %v: index-on and index-off diverge at byte %d:\n  on:  …%s…\n  off: …%s…",
					seed, mode, i, clip(on, lo, i+30), clip(off, lo, i+30))
			}
		}
	}
}

func clip(s string, lo, hi int) string {
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestAudibilityIndexNeverSkipsAudible is the soundness property behind
// the parity guarantee, on both channel backends: no bitmap the index
// builds may leave a node clear that the medium's gated probes would
// still have found. For every (tx, rx) pair a bitmap clears — checked
// when the bitmap is built and again at the end of its lifetime,
// mac.AudibilitySpan later, which covers the longest navEnd — the
// large-scale SNR must stay under the capture floor and the sense
// threshold, and the full per-subcarrier evaluation must land below the
// preamble-detection threshold at every modulation.
func TestAudibilityIndexNeverSkipsAudible(t *testing.T) {
	if testing.Short() {
		t.Skip("samples a 4 s three-segment ride per backend")
	}
	for _, backend := range []string{"wifi5g", "mmwave60g"} {
		t.Run(backend, func(t *testing.T) { checkIndexSound(t, backend) })
	}
}

func checkIndexSound(t *testing.T, backend string) {
	cfg := DefaultConfig(WGTT)
	cfg.Seed = 7
	cfg.ChannelBackend = backend
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	n := MustNewNetwork(cfg)
	for _, traj := range []mobility.Trajectory{
		mobility.Drive(-5, 0, 25),
		mobility.Drive(-20, 0, 40),
		mobility.Drive(95, 0, -25), // against traffic: exercises both box edges
	} {
		n.AddClient(traj)
	}
	ix, nodes := replicaIndex(n)

	nc := &netChannel{n: n, loop: n.Loop}
	mods := []csi.Modulation{csi.BPSK, csi.QPSK, csi.QAM16, csi.QAM64}
	words := (len(nodes) + 63) / 64
	bitmaps := make([][]uint64, len(nodes))
	var snrs [rf.NumSubcarriers]float64

	checked, skipped := 0, 0
	verify := func(when string, tx *mac.Node, bits []uint64) {
		for _, rx := range nodes {
			if rx == tx {
				continue
			}
			checked++
			seq := rx.Seq()
			if bits[seq>>6]&(1<<(seq&63)) != 0 {
				continue
			}
			skipped++
			sense := nc.SenseSNRdB(tx, rx)
			if sense >= mac.AudibleFloorDB || sense >= mac.SenseThresholdDB {
				t.Fatalf("%s: index cleared %s→%s but SenseSNRdB %.2f dB reaches the capture floor %v dB",
					when, tx.Name, rx.Name, sense, mac.AudibleFloorDB)
			}
			if !nc.SubcarrierSNRs(tx, rx, snrs[:]) {
				continue
			}
			for _, m := range mods {
				if esnr := csi.EffectiveSNRdB(snrs[:], m); esnr >= mac.DetectThresholdDB {
					t.Fatalf("%s: index cleared %s→%s but %v ESNR %.2f dB ≥ detect threshold %v",
						when, tx.Name, rx.Name, m, esnr, mac.DetectThresholdDB)
				}
			}
		}
	}
	for step := 0; step < 40; step++ {
		start := sim.Duration(step+1) * 100 * sim.Millisecond
		n.Run(start)
		for i, tx := range nodes {
			bitmaps[i] = make([]uint64, words)
			ix.MarkAudible(tx, bitmaps[i])
			verify(fmt.Sprintf("step %d start", step), tx, bitmaps[i])
		}
		n.Run(start + mac.AudibilitySpan)
		for i, tx := range nodes {
			verify(fmt.Sprintf("step %d span end", step), tx, bitmaps[i])
		}
	}
	if skipped == 0 {
		t.Fatalf("index never skipped a pair across %d checks; prefilter is vacuous", checked)
	}
	t.Logf("index skipped %d of %d pair evaluations, all verified inaudible", skipped, checked)
}

// replicaIndex builds a private index registered in the same order as
// n's medium; bits address nodes via Node.Seq, so the mapping matches.
func replicaIndex(n *Network) (*audIndex, []*mac.Node) {
	ix := newAudIndex(n, n.Loop)
	nodes := append([]*mac.Node(nil), n.apNodes...)
	for _, c := range n.Clients {
		nodes = append(nodes, c.Node())
	}
	for _, nd := range nodes {
		ix.Register(nd)
	}
	return ix, nodes
}

// TestAudibilityIndexMarksCaptureRange is the regression case for the
// capture floor: a client↔client pair too weak to detect each other
// (under 0.5 dB, the old detect-only bound) but strong enough to collide
// a frame (over mac.AudibleFloorDB) must be marked.
func TestAudibilityIndexMarksCaptureRange(t *testing.T) {
	for _, backend := range []string{"wifi5g", "mmwave60g"} {
		t.Run(backend, func(t *testing.T) {
			cfg := DefaultConfig(WGTT)
			cfg.ChannelBackend = backend
			n := MustNewNetwork(cfg)
			const target = -4.0 // dB, inside (AudibleFloorDB, detect − 0.5)
			if n.model.ClientClientSNRdB(1) < target {
				t.Skipf("%s client↔client budget is under %v dB even at 1 m", backend, target)
			}
			// Bisect the distance at which the flat budget hits target.
			lo, hi := 1.0, 1e4
			for i := 0; i < 100; i++ {
				if mid := (lo + hi) / 2; n.model.ClientClientSNRdB(mid) > target {
					lo = mid
				} else {
					hi = mid
				}
			}
			a := n.AddClient(mobility.Stationary{X: 0, Y: 0})
			b := n.AddClient(mobility.Stationary{X: lo, Y: 0})
			nc := &netChannel{n: n, loop: n.Loop}
			snr := nc.SenseSNRdB(a.Node(), b.Node())
			if snr <= mac.AudibleFloorDB || snr >= mac.DetectThresholdDB-audFlatMarginDB {
				t.Fatalf("pair at %.1f m senses %.2f dB; want inside (%v, %v)",
					lo, snr, mac.AudibleFloorDB, mac.DetectThresholdDB-audFlatMarginDB)
			}
			ix, nodes := replicaIndex(n)
			bits := make([]uint64, (len(nodes)+63)/64)
			ix.MarkAudible(a.Node(), bits)
			if seq := b.Node().Seq(); bits[seq>>6]&(1<<(seq&63)) == 0 {
				t.Errorf("clients %.1f m apart at %.2f dB can collide each other's frames but the index cleared the pair", lo, snr)
			}
		})
	}
}
