package wgtt

import (
	"runtime"
	"syscall"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/stats"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§5). Each iteration runs the full experiment against the
// simulated testbed and reports the headline numbers as custom metrics,
// so `go test -bench=. -benchmem` doubles as the reproduction harness:
//
//	go test -bench=Fig13 -benchtime=1x
//
// EXPERIMENTS.md records a full run next to the paper's numbers.

func benchOpts(i int) Options { return Options{Seed: int64(i + 1)} }

// cpuNs returns the process CPU time (user + system, all threads).
func cpuNs(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkMeanPerClientMbps times one full 15 mph UDP drive-by — the
// unit of work every end-to-end figure fans out over the runner.
func BenchmarkMeanPerClientMbps(b *testing.B) {
	cfg := DefaultConfig(SchemeWGTT)
	traj, dur := driveAcross(&cfg, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mbps := meanPerClientMbps(SchemeWGTT, benchOpts(i), []Trajectory{traj}, dur, false)
		b.ReportMetric(mbps, "Mbps")
	}
}

func BenchmarkFig02BestAPSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig2BestAPSwitching(benchOpts(i))
		b.ReportMetric(float64(r.Flips), "flips")
		b.ReportMetric(r.MeanFlipGapMs, "ms/flip")
	}
}

func BenchmarkFig04RoamingFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig4RoamingFailure(benchOpts(i))
		b.ReportMetric(r.CapacityLossMbps[0], "loss20mph_Mbps")
		b.ReportMetric(r.CapacityLossMbps[1], "loss5mph_Mbps")
	}
}

func BenchmarkFig10ESNRHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig10ESNRHeatmap(benchOpts(i))
		b.ReportMetric(r.OverlapM, "overlap_m")
	}
}

func BenchmarkTable1SwitchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table1SwitchTime(benchOpts(i), []float64{50, 70, 90})
		b.ReportMetric(r.MeanMs[0], "ms@50")
		b.ReportMetric(r.MeanMs[2], "ms@90")
		b.ReportMetric(r.StdMs[0], "std_ms@50")
	}
}

func BenchmarkFig13ThroughputVsSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig13ThroughputVsSpeed(benchOpts(i), []float64{5, 15, 35})
		last := len(r.SpeedsMPH) - 1
		b.ReportMetric(r.WGTTUDP[1], "wgtt_udp15_Mbps")
		b.ReportMetric(r.BaselineUDP[1], "11r_udp15_Mbps")
		b.ReportMetric(r.WGTTUDP[last]/r.BaselineUDP[last], "udp35_gain_x")
		b.ReportMetric(r.WGTTTCP[last]/r.BaselineTCP[last], "tcp35_gain_x")
	}
}

func BenchmarkFig14TCPTimeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig14TCPTimeseries(benchOpts(i))
		b.ReportMetric(r.WGTT.MeanMbps, "wgtt_Mbps")
		b.ReportMetric(r.Baseline.MeanMbps, "11r_Mbps")
		b.ReportMetric(float64(r.WGTT.Switches)/9.4, "wgtt_switches_per_s")
	}
}

func BenchmarkFig15UDPTimeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig15UDPTimeseries(benchOpts(i))
		b.ReportMetric(r.WGTT.MeanMbps, "wgtt_Mbps")
		b.ReportMetric(r.Baseline.MeanMbps, "11r_Mbps")
		b.ReportMetric(float64(r.Baseline.Switches), "11r_switches")
	}
}

func BenchmarkFig16BitrateCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig16BitrateCDF(benchOpts(i))
		b.ReportMetric(r.WGTT90th, "wgtt_p90_Mbps")
		b.ReportMetric(r.Baseline90th, "11r_p90_Mbps")
	}
}

func BenchmarkTable2SwitchingAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table2SwitchingAccuracy(benchOpts(i))
		b.ReportMetric(r.WGTTUDP, "wgtt_udp_pct")
		b.ReportMetric(r.BaselineUDP, "11r_udp_pct")
	}
}

func BenchmarkFig17MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig17MultiClient(benchOpts(i))
		b.ReportMetric(r.WGTTUDP[2], "wgtt_udp3_Mbps")
		b.ReportMetric(r.BaselineUDP[2], "11r_udp3_Mbps")
		b.ReportMetric(r.WGTTUDP[2]/r.BaselineUDP[2], "udp3_gain_x")
	}
}

func BenchmarkFig18UplinkLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig18UplinkLoss(benchOpts(i))
		b.ReportMetric(mean(r.MultiAP), "multiAP_loss")
		b.ReportMetric(mean(r.SingleAP), "singleAP_loss")
	}
}

func BenchmarkFig20DrivingPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig20DrivingPatterns(benchOpts(i))
		b.ReportMetric(r.WGTTUDP[0], "following_Mbps")
		b.ReportMetric(r.WGTTUDP[1], "parallel_Mbps")
		b.ReportMetric(r.WGTTUDP[2], "opposing_Mbps")
	}
}

func BenchmarkFig21WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig21WindowSize(benchOpts(i), []float64{1, 10, 100})
		b.ReportMetric(r.LossRate[0], "loss@1ms")
		b.ReportMetric(r.LossRate[1], "loss@10ms")
		b.ReportMetric(r.LossRate[2], "loss@100ms")
	}
}

func BenchmarkTable3AckCollisions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table3AckCollisions(benchOpts(i), []float64{70, 90})
		b.ReportMetric(r.CollisionPct[0], "pct@70")
		b.ReportMetric(r.CollisionPct[1], "pct@90")
	}
}

func BenchmarkFig22Hysteresis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig22Hysteresis(benchOpts(i), nil)
		b.ReportMetric(r.TCPMbps[0], "Mbps@40ms")
		b.ReportMetric(r.TCPMbps[2], "Mbps@120ms")
	}
}

func BenchmarkFig23APDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig23APDensity(benchOpts(i), []float64{15})
		b.ReportMetric(r.DenseMbps[0], "dense_Mbps")
		b.ReportMetric(r.SparseMbps[0], "sparse_Mbps")
	}
}

// BenchmarkFig23APDensitySegmented isolates the multi-segment column of
// Fig 23: the same 15 mph ride across a dense 7.5 m segment trunked to a
// sparse 15 m segment, each with its own controller, so the measurement
// includes one cross-segment controller handoff per drive.
func BenchmarkFig23APDensitySegmented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig23APDensity(benchOpts(i), []float64{15})
		b.ReportMetric(r.SegmentedMbps[0], "segmented_Mbps")
	}
}

func BenchmarkTable4VideoRebuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table4VideoRebuffer(benchOpts(i), []float64{5, 20})
		b.ReportMetric(r.WGTT[0], "wgtt@5mph")
		b.ReportMetric(r.Baseline[0], "11r@5mph")
		b.ReportMetric(r.Baseline[1], "11r@20mph")
	}
}

func BenchmarkFig24ConferencingFPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig24ConferencingFPS(benchOpts(i), []float64{15})
		b.ReportMetric(r.Skype85th[0], "skype_p85_fps")
		b.ReportMetric(r.Hangouts85th[0], "hangouts_p85_fps")
	}
}

func BenchmarkTable5WebPageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table5WebPageLoad(benchOpts(i), []float64{5, 15})
		b.ReportMetric(r.WGTT[0], "wgtt@5mph_s")
		b.ReportMetric(r.WGTT[1], "wgtt@15mph_s")
		if r.Baseline[1] > 1e8 { // ∞: never loaded
			b.ReportMetric(-1, "11r@15mph_s")
		} else {
			b.ReportMetric(r.Baseline[1], "11r@15mph_s")
		}
	}
}

// BenchmarkCorridorParallel times a two-client ride through a
// 24-segment corridor (96 APs) executed as per-segment event-loop
// domains, whose round loop runs each round's active domains one after
// another and skips the domains a round cannot touch. The ride is
// capped at 10 simulated seconds to bound each iteration.
func BenchmarkCorridorParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := corridorRideN(benchOpts(i), core.DomainsSerial, 24, 10*Second)
		b.ReportMetric(r.MeanMbps, "Mbps")
	}
}

// flightRecOn is telemetryOn plus the causal flight recorder live in
// every domain — per-switch structured records, trace-register
// propagation, and the latency-band anomaly trigger.
func flightRecOn(c *Config) {
	telemetryOn(c)
	c.FlightRecorder = 4096
	c.HandoffBandLoMs, c.HandoffBandHiMs = 17, 21
}

// BenchmarkCorridorOverhead prices instrumentation on the hot path of
// BenchmarkCorridorParallel's ride. Each op rides one seed three times
// — plain, with the full telemetry registry (per-AP counters and
// queue-depth series, handoff spans, 100 ms samplers in every domain),
// and with telemetry plus the flight recorder — in an order that
// rotates per op, and charges each ride the process CPU time it took
// plus a full collection of its garbage. CPU time leaves out the time
// the process sat waiting for a core, and the interleaving lands a
// drifting host load on all three alike. It reports the medians over
// ops of the per-op telemetry ratio (metrics/base) and recorder ratio
// (rec/metrics), which scripts/ci.sh gates at 5%.
func BenchmarkCorridorOverhead(b *testing.B) {
	variants := []func(*Config){nil, telemetryOn, flightRecOn}
	var telemetry, recorder stats.CDF
	for i := 0; i < b.N; i++ {
		cpu := make([]float64, len(variants))
		for k := range variants {
			v := (i + k) % len(variants)
			opt := benchOpts(i)
			opt.Mutate = variants[v]
			t0 := cpuNs(b)
			corridorRideN(opt, core.DomainsSerial, 24, 10*Second)
			runtime.GC()
			cpu[v] = float64(cpuNs(b) - t0)
		}
		telemetry.Add(cpu[1] / cpu[0])
		recorder.Add(cpu[2] / cpu[1])
	}
	b.ReportMetric(telemetry.Quantile(0.5), "metrics/base")
	b.ReportMetric(recorder.Quantile(0.5), "rec/metrics")
}

// BenchmarkCorridorFederated times an eight-segment federated corridor
// ride in domain mode with the full fault machinery live: ring
// trunk, directory replication on every handoff, and a fault schedule
// injecting a mid-ride outage plus random trunk drops and jitter. The
// delta against an unfederated ride of the same size prices the
// federation layer; the Mbps metric shows throughput surviving faults.
func BenchmarkCorridorFederated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpts(i)
		opt.Mutate = func(c *Config) {
			c.Federation.Enabled = true
			c.Federation.Ring = true
			c.Trunk.Faults = FaultSchedule{
				Outages:   []Outage{{A: 1, B: 2, Start: 2 * Second, End: 4 * Second}},
				DropProb:  0.02,
				JitterMax: 40 * Microsecond,
			}
		}
		r := corridorRideN(opt, core.DomainsSerial, 8, 10*Second)
		b.ReportMetric(r.MeanMbps, "Mbps")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Ablations(benchOpts(i))
		b.ReportMetric(r.UDPMbps[0], "full_udp_Mbps")
		b.ReportMetric(r.UDPMbps[1], "csiseed_udp_Mbps")
		b.ReportMetric(r.UDPMbps[2], "noBAfwd_udp_Mbps")
		b.ReportMetric(r.UDPMbps[3], "noflush_udp_Mbps")
	}
}
