package wgtt

import (
	"fmt"
	"testing"

	"wgtt/internal/core"
)

// goldenCorridor pins the three-segment corridor ride under domain
// execution for seeds 1–3, rendered with %#v for bit-level float
// round-tripping. The same string must come out of DomainsSerial and
// DomainsParallel: the conservative synchronization makes the two modes
// identical by construction, so any divergence is a lost or reordered
// event at a domain boundary. (The single-loop path is intentionally NOT
// pinned here — the partitioned medium and per-segment RNG streams make
// domain mode a different, equally valid realization.)
var goldenCorridor = map[int64]string{
	1: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{13.104030811961206, 10.297467993961924}, MeanMbps:11.700749402961565}`,
	2: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{10.911211988011358, 12.995001171705553}, MeanMbps:11.953106579858456}`,
	3: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{11.871300249322466, 11.586579175031673}, MeanMbps:11.72893971217707}`,
}

// TestCorridorDomainParity is the tentpole's end-to-end gate: the
// three-segment two-client ride compiled from
// examples/scenarios/corridor.yaml must render bit-identically as
// DomainsSerial and as DomainsParallel, and both must match the golden
// pin per seed.
func TestCorridorDomainParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corridor rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			serial := render(corridorRide(Options{Seed: seed}, core.DomainsSerial))
			parallel := render(corridorRide(Options{Seed: seed}, core.DomainsParallel))
			if serial != parallel {
				t.Errorf("parallel domains diverged from serial domains\n%s",
					firstDiff(serial, parallel))
			}
			if serial != goldenCorridor[seed] {
				t.Errorf("corridor drifted\n%s",
					firstDiffLabeled("want", "got", goldenCorridor[seed], serial))
			}
		})
	}
}

// TestCorridorSingleSegmentFallback pins the API contract that keeps the
// golden figures safe: requesting domain execution on a single-segment
// deployment silently takes the exact serial path (no coordinator), and
// renders bit-identically to a plain single-loop build.
func TestCorridorSingleSegmentFallback(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Domains = core.DomainsParallel
	n := NewNetwork(cfg)
	if n.Coord != nil {
		t.Fatal("single-segment deployment built a domain coordinator")
	}
	if n.Medium == nil {
		t.Fatal("single-segment fallback lost the shared medium")
	}
}
