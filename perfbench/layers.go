package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wgtt/internal/telemetry"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report keeps reported numbers in the order they were set.
type report struct {
	names  []string
	values map[string]metric
}

func newReport() *report { return &report{values: map[string]metric{}} }

func (m *report) set(name string, v float64, unit string) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the traced rides,
// the untraced realtime ratio, the layer probes, and the spans.
func layerMetrics(traced []*ride, untracedRatio float64, probes map[string]probeResult, tr *tracer) (*report, error) {
	m := newReport()
	var simS, wallS float64
	var mem memDelta
	var rounds, waitNs int64
	var waitDomainS, wireShardS float64
	var w wireStats
	cpu := map[string]int64{}
	var snaps []*telemetry.Snapshot
	var rideMs []float64
	var runnerBusyMs, runnerCapMs float64
	var ratios []float64
	for _, r := range traced {
		simS += r.simS
		wallS += r.wallS
		ratios = append(ratios, r.wallS/r.simS)
		mem.allocBytes += r.mem.allocBytes
		mem.mallocs += r.mem.mallocs
		mem.gcCycles += r.mem.gcCycles
		mem.pauseNs += r.mem.pauseNs
		rounds += r.rounds
		waitNs += r.waitNs
		waitDomainS += float64(r.domains) * r.wallS
		w.exchangeNs = append(w.exchangeNs, r.wire.exchangeNs...)
		w.exchanges += r.wire.exchanges
		w.bytes += r.wire.bytes
		w.resends += r.wire.resends
		wireShardS += float64(r.wire.shards) * r.wallS
		for l, ns := range r.cpuNanos {
			cpu[l] += ns
		}
		if r.snap != nil {
			snaps = append(snaps, r.snap)
		}
		rideMs = append(rideMs, r.rideMs...)
		for _, ms := range r.rideMs {
			runnerBusyMs += ms
		}
		runnerCapMs += float64(r.workers) * r.wallS * 1000
	}

	// CPU attribution: every sample lands in exactly one layer.
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	known := map[string]bool{}
	sum := 0.0
	for _, l := range layers {
		known[l] = true
		share := ratio(float64(cpu[l]), float64(total))
		sum += share
		m.set(l+".cpu_share", share, "fraction")
	}
	for l := range cpu {
		if !known[l] {
			return nil, fmt.Errorf("CPU profile charged %d ns to layer %q, which the report does not list", cpu[l], l)
		}
	}
	if math.Abs(sum-1) > 0.01 {
		return nil, fmt.Errorf("cpu_share values sum to %.4f, not 1 within 1%%", sum)
	}

	snap := telemetry.MergeSnapshots(snaps...)
	events := snap.SumGauges("loop_events")
	m.set("sim.events_per_sim_s", events/simS, "1/sim_s")
	m.set("sim.host_ns_per_event", ratio(wallS*1e9, events), "ns")
	m.set("sim.rounds_per_sim_s", float64(rounds)/simS, "1/sim_s")
	m.set("sim.barrier_wait_share", ratio(float64(waitNs)/1e9, waitDomainS), "fraction")

	mpdus := float64(snap.SumCounters("mpdus"))
	m.set("ap.mpdus_per_sim_s", mpdus/simS, "1/sim_s")
	m.set("ap.retx_ratio", ratio(float64(snap.SumCounters("mpdus_retx")), mpdus), "fraction")
	m.set("ap.drop_ratio", ratio(float64(snap.SumCounters("mpdus_dropped")), mpdus), "fraction")
	m.set("ap.uplink_mpdus_per_sim_s", float64(snap.SumCounters("uplink_mpdus"))/simS, "1/sim_s")
	m.set("ap.queue_stale_drops_per_sim_s", snap.SumGauges("queue_stale_drops")/simS, "1/sim_s")

	issued := float64(snap.SumCounters("switches_issued"))
	m.set("controller.switches_per_sim_s", issued/simS, "1/sim_s")
	m.set("controller.switch_ack_ratio", ratio(float64(snap.SumCounters("switches_acked")), issued), "fraction")
	hist, _ := snap.MergeHistograms("total_ms")
	m.set("controller.handoff_total_ms_p50", hist.Quantile(0.5), "ms")

	m.set("backhaul.msgs_per_sim_s", float64(snap.SumCounters("msgs"))/simS, "1/sim_s")
	m.set("backhaul.bytes_per_sim_s", float64(snap.SumCounters("bytes"))/simS, "B/sim_s")
	m.set("deploy.trunk_msgs_per_sim_s", float64(snap.SumCounters("tx_msgs"))/simS, "1/sim_s")

	exUs := make([]float64, len(w.exchangeNs))
	var exSum float64
	for i, ns := range w.exchangeNs {
		exUs[i] = float64(ns) / 1e3
		exSum += float64(ns) / 1e9
	}
	shards := 1.0
	if len(traced) > 0 && traced[0].wire.shards > 0 {
		shards = float64(traced[0].wire.shards)
	}
	m.set("wire.exchanges_per_sim_s", float64(w.exchanges)/shards/simS, "1/sim_s")
	m.set("wire.exchange_p50_us", median(exUs), "us")
	m.set("wire.exchange_p99_us", nearestRank(exUs, 0.99), "us")
	m.set("wire.wait_share", ratio(exSum, wireShardS), "fraction")
	m.set("wire.bytes_per_exchange", ratio(float64(w.bytes), float64(w.exchanges)), "B")
	m.set("wire.resends", float64(w.resends), "count")

	m.set("telemetry.snapshot_ms", median(tr.durations("snapshot")), "ms")
	m.set("scenario.compile_ms", median(tr.durations("compile")), "ms")
	m.set("core.build_ms", median(tr.durations("build")), "ms")
	m.set("core.attach_ms", median(tr.durations("attach")), "ms")

	m.set("runner.ride_p50_ms", median(rideMs), "ms")
	m.set("runner.ride_max_ms", maxOf(rideMs), "ms")
	m.set("runner.idle_share", ratio(runnerCapMs-runnerBusyMs, runnerCapMs), "fraction")

	m.set("runtime.gc_cycles_per_sim_s", float64(mem.gcCycles)/simS, "1/sim_s")
	m.set("runtime.gc_pause_ms", float64(mem.pauseNs)/1e6/simS, "ms/sim_s")
	m.set("runtime.mallocs_per_sim_s", float64(mem.mallocs)/simS, "1/sim_s")

	m.set("bench.trace_overhead", median(ratios)/untracedRatio, "ratio")

	var names []string
	for name := range probes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := probes[name]
		m.set(name+"_ns", p.ns, "ns")
		m.set(name+"_bytes", p.bytes, "B")
		m.set(name+"_allocs", p.allocs, "count")
	}
	return m, nil
}

// writeSpans writes the recorded spans as a Chrome trace-event file
// (load it in Perfetto or chrome://tracing).
func writeSpans(tr *tracer) []byte {
	var b []byte
	b = append(b, "{\"traceEvents\":["...)
	sep := ""
	for i, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		b = append(b, sep...)
		sep = ","
		b = append(b, fmt.Sprintf("\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
			s.Name, s.Track, float64(s.Start)/float64(time.Microsecond), float64(s.End-s.Start)/float64(time.Microsecond), i, s.Parent)...)
	}
	return append(b, "\n]}\n"...)
}
