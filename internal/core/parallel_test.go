package core

import (
	"fmt"
	"testing"

	"wgtt/internal/deploy"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// domainRideSignature rides two UDP clients across a three-segment
// corridor in domain mode and returns a byte-exact signature of what
// each sink saw. Equal signatures mean two rides delivered the same
// packets at the same virtual times.
func domainRideSignature(t *testing.T, seed int64, prop sim.Duration) string {
	t.Helper()
	cfg := DefaultConfig(WGTT)
	cfg.Seed = seed
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Domains = DomainsSerial
	cfg.Trunk.PropDelay = prop
	n := MustNewNetwork(cfg)

	var sinks []*transport.UDPSink
	for i, traj := range []mobility.Trajectory{
		mobility.Drive(-5, 0, 25), mobility.Drive(-13, 0, 25),
	} {
		c := n.AddClient(traj)
		// The sink lives client-side, so its clock must be the client's
		// (its owning segment domain's loop, wherever the client is).
		sink := transport.NewUDPSink(c.Client)
		port := uint16(9001 + 2*i)
		c.Handle(port, func(p packet.Packet) { sink.Receive(p) })
		src := transport.NewUDPSource(n.Loop, n.SendFromServer,
			packet.ServerIP, c.IP, 9000, port, 15, 1400)
		n.Loop.After(100*sim.Millisecond, src.Start)
		sinks = append(sinks, sink)
	}
	n.Run(8 * sim.Second)

	sig := ""
	for _, s := range sinks {
		sig += fmt.Sprintf("%d:%v;", s.Bytes, s.LossRate())
	}
	return sig
}

// goldenDomainRide pins domainRideSignature at the default trunk delay
// for seeds 1–3.
var goldenDomainRide = map[int64]string{
	1: `11196948:0.232177830003917;10631460:0.255202080832333;`,
	2: `11012736:0.23583036068172814;9534756:0.32711881487453387;`,
	3: `10251612:0.2725706758536832;9837492:0.30923493432267124;`,
}

// TestDomainRideGolden pins the conservative-synchronization guarantee
// at the core layer: a per-segment domain ride delivers exactly its
// pinned packets.
func TestDomainRideGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("an 8 s corridor ride per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		got := domainRideSignature(t, seed, DefaultConfig(WGTT).Trunk.PropDelay)
		if got != goldenDomainRide[seed] {
			t.Errorf("seed %d: signature %q, want %q", seed, got, goldenDomainRide[seed])
		}
	}
}

// goldenRandomTrunkDelays pins domainRideSignature at the seeded trunk
// delays of TestDomainParityRandomTrunkDelays, seeds 1–4.
var goldenRandomTrunkDelays = map[int64]string{
	1: `10842804:0.23046518698692608;9354828:0.34496550344965504;`,
	2: `10837092:0.2211617405582923;10812816:0.23126903553299494;`,
	3: `10497228:0.2534023969124518;9784656:0.31397677212655184;`,
	4: `10735704:0.23953064940319646;10622892:0.25505707991187665;`,
}

// TestDomainParityRandomTrunkDelays stresses the same guarantee across
// randomized lookaheads: the trunk propagation delay (and with it the
// synchronization round width, the mailbox minimum latency, and the
// client-migration latency) is drawn per seed, and each ride must
// match its pin bit for bit.
func TestDomainParityRandomTrunkDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("an 8 s corridor ride per seed")
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed).Fork("trunk-delay")
		prop := 50*sim.Microsecond + sim.Duration(rng.Intn(8))*75*sim.Microsecond
		got := domainRideSignature(t, seed, prop)
		if got != goldenRandomTrunkDelays[seed] {
			t.Errorf("seed %d (prop %v): signature %q, want %q",
				seed, prop, got, goldenRandomTrunkDelays[seed])
		}
	}
}

// TestDomainModeValidation pins the configurations domain mode refuses.
func TestDomainModeValidation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(WGTT)
		cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}}
		cfg.Domains = DomainsSerial
		return cfg
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid domain config rejected: %v", err)
	}
	bad := base()
	bad.Scheme = Enhanced80211r
	bad.Roamer = DefaultConfig(Enhanced80211r).Roamer
	if bad.Validate() == nil {
		t.Error("accepted a baseline scheme in domain mode")
	}
	bad = base()
	bad.Trunk.PropDelay = 0
	if bad.Validate() == nil {
		t.Error("accepted a zero-lookahead trunk in domain mode")
	}
}
