package main

import (
	"fmt"
	"time"

	"wgtt"
	"wgtt/internal/channel"
	"wgtt/internal/csi"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Layer probes call single public functions of one layer with inputs
// taken from the workloads and report host cost per call.

// probeResult is the cost of one call: host nanoseconds, heap bytes
// and heap objects allocated.
type probeResult struct{ ns, bytes, allocs float64 }

// probe times op, which performs calls calls per invocation. It sizes a
// batch to about 50 ms and reports the median of three batches.
func probe(calls int, op func()) probeResult {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		if d := time.Since(t0); d > 5*time.Millisecond || batch >= 1<<24 {
			batch = int(float64(batch)*float64(50*time.Millisecond)/float64(d)) + 1
			break
		}
		batch *= 4
	}
	var ns, bytes, allocs []float64
	for round := 0; round < 3; round++ {
		m0 := readMem()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		d := time.Since(t0)
		m := readMem().since(m0)
		per := float64(batch * calls)
		ns = append(ns, float64(d.Nanoseconds())/per)
		bytes = append(bytes, float64(m.allocBytes)/per)
		allocs = append(allocs, float64(m.mallocs)/per)
	}
	return probeResult{median(ns), median(bytes), median(allocs)}
}

// runProbes measures the layer probes on the seed's inputs:
// Config.APPosition over every AP of the 24-segment corridor, the
// channel link calls on dense_cell geometry, and csi.EffectiveSNRdB on
// the subcarrier SNRs those links produce.
func runProbes(seed int64) (map[string]probeResult, error) {
	out := map[string]probeResult{}

	c, err := compileScenario(corridorYAML("corridor_ride", seed, corridorSegments, corridorClients), nil, -1)
	if err != nil {
		return nil, err
	}
	corridor := c.Config
	aps := corridor.TotalAPs()
	var sink rf.Position
	out["core.ap_position"] = probe(aps, func() {
		for i := 0; i < aps; i++ {
			sink = corridor.APPosition(i)
		}
	})
	_ = sink

	dense := genDenseCell(seed)
	cfg := dense.config()
	model, err := cfg.ChannelModel()
	if err != nil {
		return nil, err
	}
	// One link per AP, each to the dense_cell client in that AP's slot
	// of the road.
	rng := sim.NewRNG(seed)
	var ls []channel.Link
	var cli []wgtt.Trajectory
	for i := 0; i < cfg.TotalAPs(); i++ {
		ls = append(ls, model.NewLink(cfg.APPosition(i), rng.Fork(fmt.Sprintf("probe-%d", i))))
		k := i * denseClients / cfg.TotalAPs()
		cli = append(cli, wgtt.Drive(dense.StartX[k], dense.LaneY[k], mph))
	}
	snrs := make([]float64, rf.NumSubcarriers)
	var now sim.Time
	step := func() sim.Time {
		now += sim.Time(100 * sim.Microsecond)
		return now
	}
	out["channel.subcarrier_snrs"] = probe(len(ls), func() {
		t := step()
		for i, l := range ls {
			l.SubcarrierSNRsDB(t, cli[i].Pos(t), snrs)
		}
	})
	var fsink float64
	out["channel.mean_snr"] = probe(len(ls), func() {
		t := step()
		for i, l := range ls {
			fsink += l.MeanSNRdB(t, cli[i].Pos(t))
		}
	})
	// One SNR vector per link at a fixed time, then ESNR over them.
	vecs := make([][]float64, len(ls))
	for i, l := range ls {
		vecs[i] = make([]float64, rf.NumSubcarriers)
		l.SubcarrierSNRsDB(now, cli[i].Pos(now), vecs[i])
	}
	out["csi.esnr"] = probe(len(vecs), func() {
		for _, v := range vecs {
			fsink += csi.EffectiveSNRdB(v, csi.RefModulation)
		}
	})
	_ = fsink
	return out, nil
}
