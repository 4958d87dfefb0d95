package wgtt

import (
	"fmt"
	"testing"
)

// workloadDomainSignature runs the two client-side-timer workloads — CBR
// UDP uplink and the two-party conference — across a three-segment
// corridor in domain mode, and returns a byte-exact signature. Both
// workloads arm timers on the client's migration-safe scheduler, so
// this is the regression test for client timer sources that used to live
// on the shared loop (domain-unsafe: a client migrates between domains).
func workloadDomainSignature(t *testing.T, seed int64) string {
	t.Helper()
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = seed
	cfg.Segments = []SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Domains = DomainsSerial
	n := NewNetwork(cfg)

	up := NewUDPUplink(n, n.AddClient(Drive(-5, 0, 25)), 7001, 5)
	conf := NewConference(n, n.AddClient(Drive(-13, 0, 25)))
	// Both must start before Run: in domain mode, client-domain timers
	// may only be armed from their own domain once the run begins.
	up.Start()
	conf.Start()
	n.Run(8 * Second)

	return fmt.Sprintf("up=%d;frames=%d;fpsN=%d;fpsMean=%v",
		up.Sink.Bytes, conf.FramesRendered(), conf.FPSSamples.N(), conf.FPSSamples.Mean())
}

// goldenClientWorkload pins workloadDomainSignature for seeds 1–2.
var goldenClientWorkload = map[int64]string{
	1: `up=2931684;frames=66;fpsN=8;fpsMean=8.25`,
	2: `up=3114468;frames=82;fpsN=8;fpsMean=10.25`,
}

// TestDomainClientWorkloadParity pins that uplink CBR and conferencing —
// the workloads whose emission timers ride on the client — deliver
// their pinned results in domain mode while their client migrates
// across segments.
func TestDomainClientWorkloadParity(t *testing.T) {
	if testing.Short() {
		t.Skip("an 8 s corridor ride per seed")
	}
	for seed := int64(1); seed <= 2; seed++ {
		got := workloadDomainSignature(t, seed)
		if got != goldenClientWorkload[seed] {
			t.Errorf("seed %d: %s", seed, firstDiffLabeled("want", "got", goldenClientWorkload[seed], got))
		}
		if got == "up=0;frames=0;fpsN=0;fpsMean=NaN" {
			t.Errorf("seed %d: workloads delivered nothing: %q", seed, got)
		}
	}
}
