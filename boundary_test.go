package wgtt

import (
	"fmt"
	"testing"

	"wgtt/internal/core"
)

// boundaryRide is the corridor ride in domain mode with the
// boundary-interference exchange on, returning the rendered result plus
// the exchange counters.
func boundaryRide(seed int64) (rendered string, posted, applied int) {
	const (
		segments = 3
		apsPer   = 4
		clients  = 2
		mph      = 25.0
	)
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = seed
	for i := 0; i < segments; i++ {
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: apsPer})
	}
	cfg.Domains = core.DomainsSerial
	cfg.BoundaryInterference = true
	n := NewNetwork(cfg)
	_, dur := driveAcross(&cfg, mph)
	lo, _ := cfg.RoadSpanX()
	var meters []*throughput
	for _, traj := range Scenario(Following, clients, lo-5, 0, mph) {
		c := n.AddClient(traj)
		f := NewUDPDownlink(n, c, offeredUDPMbps)
		startAfterWarmup(n, f.Start)
		meters = append(meters, f.Meter)
	}
	n.Run(dur)
	res := CorridorResult{Segments: segments, APsPerSegment: apsPer, SpeedMPH: mph}
	for _, m := range meters {
		res.PerClientMbps = append(res.PerClientMbps, m.MeanMbps(n.Loop.Now()))
	}
	res.MeanMbps = mean(res.PerClientMbps)
	posted, applied = n.BoundaryInterferenceStats()
	return render(res), posted, applied
}

// goldenBoundary pins boundaryRide for seeds 1–3: the rendered result
// and the exchange counters.
var goldenBoundary = map[int64]string{
	1: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{11.270447024376253, 9.886638556301467}, MeanMbps:10.57854279033886} posted=6641 applied=1189`,
	2: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{9.77803322987623, 11.849987082450378}, MeanMbps:10.814010156163304} posted=6630 applied=981`,
	3: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{8.749774265684708, 11.212683037766329}, MeanMbps:9.98122865172552} posted=6597 applied=1075`,
}

// TestBoundaryInterferenceParity pins the cross-domain interference
// exchange: with the feature on, the domain ride must match its golden
// pin (the exchange rides the same conservative mailboxes as all other
// cross-domain traffic), and the exchange must actually fire —
// boundary-zone transmissions posted to neighbours and remote
// interference applied to deliveries.
func TestBoundaryInterferenceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("a full corridor ride per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rendered, posted, applied := boundaryRide(seed)
			got := fmt.Sprintf("%s posted=%d applied=%d", rendered, posted, applied)
			if got != goldenBoundary[seed] {
				t.Errorf("boundary-interference ride drifted\n%s",
					firstDiffLabeled("want", "got", goldenBoundary[seed], got))
			}
			if posted == 0 {
				t.Error("no boundary-zone transmissions were exported; the exchange never fired")
			}
			if applied == 0 {
				t.Error("no delivery saw remote interference; the penalty path never fired")
			}
		})
	}
}

// TestBoundaryInterferenceOffIsInert pins the default-off contract: a
// domain ride without the knob reports zero exchange activity.
func TestBoundaryInterferenceOffIsInert(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	for i := 0; i < 2; i++ {
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: 2})
	}
	cfg.Domains = core.DomainsSerial
	n := NewNetwork(cfg)
	c := n.AddClient(Stationary{X: 5, Y: 0})
	f := NewUDPDownlink(n, c, 5)
	startAfterWarmup(n, f.Start)
	n.Run(2 * Second)
	if posted, applied := n.BoundaryInterferenceStats(); posted != 0 || applied != 0 {
		t.Errorf("exchange active with BoundaryInterference off: posted=%d applied=%d", posted, applied)
	}
}

// TestBoundaryInterferenceValidation pins the knob's configuration
// contract: it needs domain execution and at least two segments.
func TestBoundaryInterferenceValidation(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.BoundaryInterference = true
	if err := cfg.Validate(); err == nil {
		t.Error("single-loop + BoundaryInterference validated; want error")
	}
	cfg.Segments = []SegmentSpec{{NumAPs: 2}, {NumAPs: 2}}
	cfg.Domains = core.DomainsSerial
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid boundary-interference config rejected: %v", err)
	}
	cfg.BoundaryZoneM = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative BoundaryZoneM validated; want error")
	}
}
