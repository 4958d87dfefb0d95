package core

import (
	"testing"

	"wgtt/internal/deploy"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// BenchmarkMediumDense prices the shared medium where it is busiest: 8
// segments of 8 APs on one medium with 128 clients spread over the road
// at 25 mph, every eighth carrying a 30 Mbit/s UDP downlink. The network
// is built and warmed up (flows running, 200 ms) outside the timer; each
// op then simulates the next 100 ms, so ns/op, B/op and allocs/op are
// the per-PPDU delivery, carrier-sense and capture cost of a dense cell.
//
//	go test -run='^$' -bench=MediumDense -benchtime=5x -benchmem ./internal/core
func BenchmarkMediumDense(b *testing.B) {
	const (
		segments = 8
		clients  = 128
		flowGap  = 8 // every flowGap-th client carries a downlink
		warmup   = 200 * sim.Millisecond
		step     = 100 * sim.Millisecond
	)
	cfg := DefaultConfig(WGTT)
	cfg.Seed = 1
	for i := 0; i < segments; i++ {
		cfg.Segments = append(cfg.Segments, deploy.SegmentSpec{NumAPs: 8})
	}
	n := MustNewNetwork(cfg)
	lo, hi := cfg.RoadSpanX()
	span := hi - lo + 10
	for i := 0; i < clients; i++ {
		c := n.AddClient(mobility.Drive(lo-5+span*float64(i)/clients, float64(i%2)*-3, 25))
		if i%flowGap == 0 {
			src, _ := udpDownlink(n, c, 30)
			src.Start()
		}
	}
	n.Run(warmup)
	ppdus := n.Medium.Stats().PPDUs

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(warmup + sim.Duration(i+1)*step)
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Medium.Stats().PPDUs-ppdus)/float64(b.N), "ppdus/op")
}
