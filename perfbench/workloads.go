package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wgtt"
	"wgtt/internal/core"
	"wgtt/internal/runner"
	"wgtt/internal/scenario"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/wire"
)

// slice is the virtual time a ride advances between two host-time
// readings: wgtt-serve's default slice.
const slice = 100 * wgtt.Millisecond

// The generated inputs of each workload. Everything a ride depends on
// is derived from the workload seed by these generators; the program
// only ever sees their output.
const (
	denseSegments = 8
	denseAPs      = 8
	denseClients  = 128
	denseFlows    = 16
	denseHorizon  = 1 * wgtt.Second

	corridorSegments = 24
	corridorAPs      = 4 // per segment, on split_ride too
	corridorClients  = 2
	corridorWindow   = 10 * wgtt.Second

	splitSegments = 12
	splitClients  = 4
	splitWindow   = 8 * wgtt.Second
	splitLayout   = "segs,server"

	mph      = 25
	rateMbps = 30
	warmup   = runner.DefaultWarmup
)

// ride is what one timed ride of a workload reports.
type ride struct {
	simS     float64   // simulated seconds ridden
	wallS    float64   // host seconds spent riding (set-up excluded)
	slicesMs []float64 // host milliseconds per 100 ms virtual slice
	mem      memDelta
	peakHeap uint64
	speed    float64   // host speed over the ride's calibration gaps (1 uncalibrated)
	flows    []float64 // simulated per-flow goodput, Mbit/s, in flow order
	unowned  []bool    // per flow: its client ended the ride unowned
	rideMs   []float64 // paper_fig13: host ms of each runner ride
	workers  int       // paper_fig13: runner.Map workers

	// Filled on traced rides (and, for split_ride, snap and wire always).
	snap     *telemetry.Snapshot
	rounds   int64
	waitNs   int64 // summed barrier waits over all domains
	domains  int
	wire     wireStats
	cpuNanos map[string]int64 // CPU profile, folded per layer
}

// workload generates one workload's inputs from a seed and rides them.
type workload interface {
	// digest fingerprints the generated inputs: the compiled-scenario
	// digest where the workload is a scenario, else a hash of the
	// generated parameters.
	digest() (string, error)
	// setup builds runnable networks from the inputs and drops them,
	// returning the host seconds it took.
	setup() (float64, error)
	// ride builds and rides once. On a traced ride, tr is non-nil and
	// the networks run with telemetry and barrier-wait stats on. A
	// non-nil cal runs between the ride's steps (see calibrator).
	ride(tr *tracer, cal *calibrator) (*ride, error)
	// reference returns what the rides must reproduce.
	reference() (reference, error)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "dense_cell":
		return genDenseCell(seed), nil
	case "corridor_ride":
		return &corridorRide{yaml: corridorYAML("corridor_ride", seed, corridorSegments, corridorClients)}, nil
	case "split_ride":
		return &splitRide{yaml: corridorYAML("split_ride", seed, splitSegments, splitClients)}, nil
	case "paper_fig13":
		return genFig13(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have dense_cell, corridor_ride, split_ride, paper_fig13)", name)
}

// timeRide runs fn as the timed part of a ride: the heap is collected
// first, then allocation counters and peak heap are taken around fn.
// On a traced ride the CPU profile covers fn too. The host time cal's
// kernel took on the ride's critical path (its total over par
// goroutines that ran it side by side) is taken out of the ride's.
func timeRide(r *ride, traced bool, cal *calibrator, par int, fn func() error) error {
	runtime.GC()
	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	m0 := readMem()
	hs := startHeapSampler()
	t0 := time.Now()
	err := fn()
	r.wallS = (time.Since(t0) - cal.spentTime()/time.Duration(par)).Seconds()
	r.speed = cal.speed()
	r.peakHeap = hs.finish()
	r.mem = readMem().since(m0)
	if prof != nil {
		folded, perr := prof.stop()
		if err == nil {
			err = perr
		}
		r.cpuNanos = folded
	}
	return err
}

// sliced advances to horizon in 100 ms virtual slices via step, timing
// each full slice; a shorter last slice is run but not timed. Each
// slice is advanced in sub equal steps, and cal's kernel runs in the
// untimed gap after each step.
func sliced(horizon wgtt.Duration, sub int, tr *tracer, cal *calibrator, parent, track int, step func(t wgtt.Duration) error) ([]float64, error) {
	ms := make([]float64, 0, int(horizon/slice))
	t := slice
	for ; t <= horizon; t += slice {
		id := tr.begin("run_slice", parent, track)
		var busy time.Duration
		for k := 1; k <= sub; k++ {
			t0 := time.Now()
			if err := step(t - slice + slice*wgtt.Duration(k)/wgtt.Duration(sub)); err != nil {
				return ms, err
			}
			d := time.Since(t0)
			busy += d
			cal.after(d)
		}
		ms = append(ms, float64(busy.Nanoseconds())/1e6)
		tr.end(id)
	}
	if t-slice < horizon {
		return ms, step(horizon)
	}
	return ms, nil
}

func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ---- dense_cell ----------------------------------------------------

// denseCell is the RunScaleCell shape: 8 segments of 8 APs on one
// shared medium, 128 clients spread over the road at 25 mph, 16 of them
// carrying a 30 Mbit/s UDP downlink and the rest associated but idle.
type denseCell struct {
	Seed    int64     `json:"seed"`
	StartX  []float64 `json:"start_x"`
	LaneY   []float64 `json:"lane_y"`
	Flows   []int     `json:"flows"` // client indices carrying a downlink
	Horizon int64     `json:"horizon_ns"`
}

func (w *denseCell) config() wgtt.Config {
	cfg := wgtt.DefaultConfig(wgtt.SchemeWGTT)
	cfg.Seed = w.Seed
	for i := 0; i < denseSegments; i++ {
		cfg.Segments = append(cfg.Segments, wgtt.SegmentSpec{NumAPs: denseAPs})
	}
	return cfg
}

func genDenseCell(seed int64) *denseCell {
	w := &denseCell{Seed: seed, Horizon: int64(denseHorizon)}
	cfg := w.config()
	lo, hi := cfg.RoadSpanX()
	span := hi - lo + 10
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < denseClients; i++ {
		// Even spread with a seeded offset of up to a quarter slot;
		// lanes alternate so neighbours do not stack.
		w.StartX = append(w.StartX, lo-5+span*(float64(i)+rng.Float64()/4)/denseClients)
		w.LaneY = append(w.LaneY, float64(i%2)*-3)
	}
	// Every eighth client carries a flow, so the flows are spread
	// evenly over the road.
	for k := 0; k < denseFlows; k++ {
		w.Flows = append(w.Flows, k*denseClients/denseFlows)
	}
	return w
}

func (w *denseCell) digest() (string, error) { return jsonDigest(w) }

func (w *denseCell) build(tr *tracer, parent int, telemetry bool) (*core.Network, []*wgtt.UDPDownlink, error) {
	id := tr.begin("build", parent, 0)
	cfg := w.config()
	cfg.Telemetry = telemetry
	n, err := core.NewNetwork(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("attach", parent, 0)
	defer tr.end(id)
	isFlow := map[int]bool{}
	for _, i := range w.Flows {
		isFlow[i] = true
	}
	var flows []*wgtt.UDPDownlink
	for i := range w.StartX {
		c := n.AddClient(wgtt.Drive(w.StartX[i], w.LaneY[i], mph))
		if isFlow[i] {
			f := wgtt.NewUDPDownlink(n, c, rateMbps)
			n.Loop.After(warmup, f.Start)
			flows = append(flows, f)
		}
	}
	return n, flows, nil
}

func (w *denseCell) setup() (float64, error) {
	t0 := time.Now()
	_, _, err := w.build(nil, -1, false)
	return time.Since(t0).Seconds(), err
}

// denseSteps splits each of dense_cell's long slices so the calibration
// kernel samples the host about ten times a slice.
const denseSteps = 10

func (w *denseCell) ride(tr *tracer, cal *calibrator) (*ride, error) {
	r := &ride{simS: wgtt.Duration(w.Horizon).Seconds()}
	root := tr.begin("ride", -1, 0)
	defer tr.end(root)
	n, flows, err := w.build(tr, root, tr != nil)
	if err != nil {
		return nil, err
	}
	err = timeRide(r, tr != nil, cal, 1, func() (err error) {
		r.slicesMs, err = sliced(wgtt.Duration(w.Horizon), denseSteps, tr, cal, root, 0, func(t wgtt.Duration) error {
			n.Run(t)
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	now := n.Loop.Now()
	for _, f := range flows {
		r.flows = append(r.flows, f.Mbps(now))
	}
	r.unowned = flowsUnowned(n, w.Flows)
	if tr != nil {
		r.snap = n.MetricsSnapshot()
	}
	return r, nil
}

// reference is the digest recorded for this seed, if any.
func (w *denseCell) reference() (reference, error) {
	return tableReference("dense_cell", w.Seed, len(w.Flows))
}

func (w *denseCell) record(t digestTable, flows []float64) { t.set("dense_cell", w.Seed, flows) }

// flowsUnowned marks the flows whose client no controller owns.
func flowsUnowned(n *core.Network, flowClients []int) []bool {
	lost := map[int]bool{}
	for _, id := range n.LostClients() {
		lost[id] = true
	}
	out := make([]bool, len(flowClients))
	for i, id := range flowClients {
		out[i] = lost[id]
	}
	return out
}

// ---- scenario workloads: corridor_ride and split_ride ------------------

// corridorYAML generates the corridor scenario (examples/scenarios/
// corridor.yaml's shape) widened to the given number of 4-AP segments
// and following clients, seeded with the workload seed.
func corridorYAML(name string, seed int64, segments, clients int) string {
	s := fmt.Sprintf("name: %s\nseed: %d\nroad:\n  segments:\n", name, seed)
	for i := 0; i < segments; i++ {
		s += fmt.Sprintf("    - aps: %d\n", corridorAPs)
	}
	return s + fmt.Sprintf("routes:\n  - name: bus-east\n    mph: %d\nclients:\n  - route: bus-east\n    count: %d\n", mph, clients)
}

// compileScenario parses and compiles scenario text.
func compileScenario(yaml string, tr *tracer, parent int) (*wgtt.CompiledScenario, error) {
	id := tr.begin("compile", parent, 0)
	defer tr.end(id)
	spec, err := wgtt.ParseScenario([]byte(yaml))
	if err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	return wgtt.CompileScenario(spec, 0)
}

func scenarioDigest(yaml string) (string, error) {
	c, err := compileScenario(yaml, nil, -1)
	if err != nil {
		return "", err
	}
	return c.Digest(), nil
}

// scenarioNet is one network built from a compiled scenario, with the
// compiled client plans attached.
type scenarioNet struct {
	n     *core.Network
	flows []interface{ Mbps(sim.Time) float64 }
	ids   []int // client id of each flow
}

func buildScenario(c *wgtt.CompiledScenario, mode wgtt.DomainMode, telemetry bool, tr *tracer, parent, track int) (*scenarioNet, error) {
	id := tr.begin("build", parent, track)
	cfg := c.Config
	cfg.Domains = mode
	cfg.Telemetry = telemetry
	n, err := core.NewNetwork(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("attach", parent, track)
	defer tr.end(id)
	s := &scenarioNet{n: n}
	for i := range c.Clients {
		p := &c.Clients[i]
		cl := n.AddClient(p.Traj)
		switch p.Workload {
		case scenario.WorkloadUDP:
			f := wgtt.NewUDPDownlink(n, cl, p.RateMbps)
			n.Loop.After(p.Start, f.Start)
			s.flows = append(s.flows, f)
		default:
			return nil, fmt.Errorf("scenario client %d: workload %q is not generated by this benchmark", i, p.Workload)
		}
		s.ids = append(s.ids, len(n.Clients)-1)
	}
	return s, nil
}

func (s *scenarioNet) figures(now sim.Time) []float64 {
	out := make([]float64, len(s.flows))
	for i, f := range s.flows {
		out[i] = f.Mbps(now)
	}
	return out
}

// corridorRide is 24 segments of 4 APs with two following clients at
// 25 mph, run as parallel per-segment domains.
type corridorRide struct{ yaml string }

func (w *corridorRide) digest() (string, error) { return scenarioDigest(w.yaml) }

func (w *corridorRide) build(mode wgtt.DomainMode, tr *tracer, parent int) (*scenarioNet, error) {
	c, err := compileScenario(w.yaml, tr, parent)
	if err != nil {
		return nil, err
	}
	return buildScenario(c, mode, tr != nil, tr, parent, 0)
}

func (w *corridorRide) setup() (float64, error) {
	t0 := time.Now()
	_, err := w.build(wgtt.DomainsParallel, nil, -1)
	return time.Since(t0).Seconds(), err
}

func (w *corridorRide) rideMode(mode wgtt.DomainMode, tr *tracer, cal *calibrator) (*ride, error) {
	r := &ride{simS: corridorWindow.Seconds()}
	root := tr.begin("ride", -1, 0)
	defer tr.end(root)
	s, err := w.build(mode, tr, root)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		s.n.Coord.EnableWaitStats()
	}
	err = timeRide(r, tr != nil, cal, 1, func() (err error) {
		r.slicesMs, err = sliced(corridorWindow, 1, tr, cal, root, 0, func(t wgtt.Duration) error {
			s.n.Run(t)
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.flows = s.figures(s.n.Coord.Now())
	r.unowned = flowsUnowned(s.n, s.ids)
	if tr != nil {
		r.snap = s.n.MetricsSnapshot()
		r.rounds = s.n.Coord.Rounds()
		for _, ws := range s.n.Coord.WaitStats() {
			r.waitNs += ws.SumNs
			r.domains++
		}
	}
	return r, nil
}

func (w *corridorRide) ride(tr *tracer, cal *calibrator) (*ride, error) {
	return w.rideMode(wgtt.DomainsParallel, tr, cal)
}

// reference is the same inputs ridden as serial domains: parallel and
// serial domain execution must agree bit for bit.
func (w *corridorRide) reference() (reference, error) {
	r, err := w.rideMode(wgtt.DomainsSerial, nil, nil)
	if err != nil {
		return reference{}, err
	}
	return reference{flows: r.flows, source: "the DomainsSerial ride"}, nil
}

// splitRide is a 12-segment, 4-client corridor with telemetry on, split
// inside one process into the shards "segs" and "server", each with its
// own network and its own wire.Transport over a Unix socket, advanced
// in 100 ms slices with an owned-metrics export at every boundary.
type splitRide struct{ yaml string }

func (w *splitRide) digest() (string, error) { return scenarioDigest(w.yaml) }

// build compiles once and builds one network per shard.
func (w *splitRide) build(shards int, tr *tracer, parent int) ([]*scenarioNet, *wgtt.CompiledScenario, error) {
	c, err := compileScenario(w.yaml, tr, parent)
	if err != nil {
		return nil, nil, err
	}
	var nets []*scenarioNet
	for i := 0; i < shards; i++ {
		s, err := buildScenario(c, wgtt.DomainsSerial, true, tr, parent, i)
		if err != nil {
			return nil, nil, err
		}
		nets = append(nets, s)
	}
	return nets, c, nil
}

func (w *splitRide) setup() (float64, error) {
	t0 := time.Now()
	_, _, err := w.build(2, nil, -1)
	return time.Since(t0).Seconds(), err
}

// socketDir holds the split ride's Unix sockets, inside the checkout.
const socketDir = ".bench_build/sock"

func (w *splitRide) ride(tr *tracer, cal *calibrator) (*ride, error) {
	r := &ride{simS: splitWindow.Seconds()}
	root := tr.begin("ride", -1, 0)
	defer tr.end(root)
	nets, c, err := w.build(2, tr, root)
	if err != nil {
		return nil, err
	}

	part, err := core.ParsePartition(splitLayout)
	if err != nil {
		return nil, err
	}
	owned, err := part.Resolve(nets[0].n)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(socketDir, 0o755); err != nil {
		return nil, err
	}
	addrs := []string{"unix:" + filepath.Join(socketDir, "split0.sock"), "unix:" + filepath.Join(socketDir, "split1.sock")}
	digest := sha256.Sum256([]byte(c.Digest() + "|" + splitLayout))
	buses := make([]*timedBus, 2)
	for i := range buses {
		tp, err := wire.New(wire.Config{Self: i, Addrs: addrs, Digest: digest})
		if err != nil {
			return nil, err
		}
		defer tp.Close()
		buses[i] = &timedBus{tp: tp, tr: tr, track: i}
	}

	var shardSlices [2][]float64
	errs := make([]error, 2)
	// Only the segment shard calibrates: the server shard waits on it
	// in its next exchange, so each gap pauses the ride once.
	shardCal := []*calibrator{cal, nil}
	err = timeRide(r, tr != nil, cal, 1, func() error {
		var wg sync.WaitGroup
		for i := range nets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n, b := nets[i].n, buses[i]
				shardSlices[i], errs[i] = sliced(splitWindow, 1, tr, shardCal[i], root, i, func(t wgtt.Duration) error {
					b.parent = tr.begin("run_partitioned", root, i)
					err := n.RunPartitioned(t, owned[i], b)
					tr.end(b.parent)
					if err != nil {
						return err
					}
					id := tr.begin("snapshot", root, i)
					defer tr.end(id)
					return n.MetricsSnapshotOwned(owned[i]).Write(io.Discard, telemetry.FormatProm)
				})
				if errs[i] != nil {
					// Unblock the peer waiting on this shard's rounds.
					b.tp.Close()
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The segment shard carries every radio; its slices are the ones a
	// live serve would fall behind on.
	r.slicesMs = shardSlices[0]
	now := nets[0].n.Coord.Now()
	for i := range nets[0].flows {
		owner := -1
		for si, s := range nets {
			if s.n.OwnsClient(owned[si], s.n.Clients[s.ids[i]]) {
				if owner >= 0 {
					return nil, fmt.Errorf("client %d owned by shards %d and %d", s.ids[i], owner, si)
				}
				owner = si
			}
		}
		if owner < 0 {
			r.flows = append(r.flows, -1)
			r.unowned = append(r.unowned, true)
			continue
		}
		r.flows = append(r.flows, nets[owner].flows[i].Mbps(now))
		r.unowned = append(r.unowned, false)
	}
	// Every controller lives in the segment shard.
	for i, lost := range flowsUnowned(nets[0].n, nets[0].ids) {
		r.unowned[i] = r.unowned[i] || lost
	}
	var parts []*telemetry.Snapshot
	for si, s := range nets {
		parts = append(parts, s.n.MetricsSnapshotOwned(owned[si]))
	}
	r.snap = telemetry.MergeSnapshots(parts...)
	r.rounds = nets[0].n.Coord.Rounds()
	for _, b := range buses {
		st := b.tp.Stats()
		r.wire.exchangeNs = append(r.wire.exchangeNs, b.ns...)
		r.wire.bytes += st.BytesTx
		r.wire.resends += st.Resends
		r.wire.exchanges += st.Exchanges
	}
	r.wire.shards = len(buses)
	return r, nil
}

// reference is the same inputs ridden in one process as serial
// domains: every flow must match its goodput, and the merged shard
// telemetry is compared with its telemetry byte for byte.
func (w *splitRide) reference() (reference, error) {
	nets, _, err := w.build(1, nil, -1)
	if err != nil {
		return reference{}, err
	}
	s := nets[0]
	_, err = sliced(splitWindow, 1, nil, nil, -1, 0, func(t wgtt.Duration) error {
		s.n.Run(t)
		return nil
	})
	if err != nil {
		return reference{}, err
	}
	want, err := snapshotText(s.n.MetricsSnapshot())
	if err != nil {
		return reference{}, err
	}
	telemetry := func(r *ride) string {
		got, err := snapshotText(r.snap)
		if err != nil {
			return err.Error()
		}
		if got == want {
			return ""
		}
		a, b := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				return fmt.Sprintf("merged shard telemetry differs at line %d: %q, in-process %q", i+1, a[i], b[i])
			}
		}
		return "merged shard telemetry is shorter than the in-process telemetry"
	}
	return reference{flows: s.figures(s.n.Coord.Now()), source: "the in-process DomainsSerial ride", telemetry: telemetry}, nil
}

func snapshotText(s *telemetry.Snapshot) (string, error) {
	var b strings.Builder
	if s == nil {
		return "", fmt.Errorf("no telemetry snapshot")
	}
	err := s.WriteText(&b)
	return b.String(), err
}

// timedBus wraps a shard's transport and times each Exchange.
type timedBus struct {
	tp     *wire.Transport
	tr     *tracer
	parent int
	track  int
	ns     []int64
}

func (b *timedBus) Exchange(m sim.RoundMsg) ([]sim.RoundMsg, error) {
	id := b.tr.begin("exchange", b.parent, b.track)
	t0 := time.Now()
	out, err := b.tp.Exchange(m)
	if b.tr != nil {
		b.ns = append(b.ns, time.Since(t0).Nanoseconds())
	}
	b.tr.end(id)
	return out, err
}

// wireStats is the split ride's wire traffic, both shards summed.
type wireStats struct {
	exchangeNs []int64
	exchanges  int64
	bytes      int64
	resends    int64
	shards     int
}

// ---- paper_fig13 -----------------------------------------------------

// fig13 regenerates Fig 13 at its three pinned seeds (1–3, the golden
// figures): for each seed, the 20 rides of speeds {0, 5, 15, 25, 35} mph
// × {WGTT, 802.11r} × {TCP, UDP} on the paper's single eight-AP segment,
// fanned out over runner.Map with one worker per CPU. The simulated
// inputs are the pinned figure's; the workload seed shuffles the order
// of equally long rides in the fan-out. (A single figure seed makes a
// poor benchmark input: the parked rides' channel, fixed for their whole
// 10 s, swings the figure's host cost by a third from seed to seed.)
type fig13 struct {
	specs []runner.RunSpec
	keys  []fig13Key // which figure ride each spec is
}

// fig13Key names one figure ride: its figure seed and its index among
// that seed's 20 rides in fig13Speeds order.
type fig13Key struct {
	seed  int64
	index int
}

const fig13Seeds = 3 // figure seeds 1..fig13Seeds

// fig13Speeds orders the rides longest first (5 mph crosses the array
// in 28 simulated seconds, the parked ride lasts 10), so the fan-out
// ends on short rides rather than waiting on one long straggler.
var fig13Speeds = []float64{5, 0, 15, 25, 35}

func genFig13(seed int64) *fig13 {
	w := &fig13{}
	cfg := wgtt.DefaultConfig(wgtt.SchemeWGTT)
	lo, hi := cfg.RoadSpanX()
	rng := rand.New(rand.NewSource(seed))
	for si, v := range fig13Speeds {
		var traj wgtt.Trajectory
		var dur wgtt.Duration
		if v == 0 {
			traj, dur = wgtt.Stationary{X: (lo + hi) / 2, Y: 0}, 10*wgtt.Second
		} else {
			// Cross the whole array with 5 m of lead-in and lead-out.
			d := wgtt.Drive(lo-5, 0, v)
			traj, dur = d, wgtt.Duration((hi-lo+10)/d.SpeedMps()*float64(wgtt.Second))
		}
		first := len(w.specs)
		for fs := int64(1); fs <= fig13Seeds; fs++ {
			i := si * 4
			for _, scheme := range []wgtt.Scheme{wgtt.SchemeWGTT, wgtt.SchemeEnhanced80211r} {
				for _, tp := range []runner.Transport{runner.TCP, runner.UDP} {
					w.specs = append(w.specs, runner.RunSpec{
						Label:  fmt.Sprintf("%s %s %gmph seed %d", scheme, tp, v, fs),
						Scheme: scheme, Seed: fs, Trajs: []wgtt.Trajectory{traj},
						Duration: dur, Transport: tp, OfferedMbps: rateMbps, Warmup: warmup,
					})
					w.keys = append(w.keys, fig13Key{fs, i})
					i++
				}
			}
		}
		rng.Shuffle(len(w.specs)-first, func(a, b int) {
			a, b = first+a, first+b
			w.specs[a], w.specs[b] = w.specs[b], w.specs[a]
			w.keys[a], w.keys[b] = w.keys[b], w.keys[a]
		})
	}
	return w
}

func (w *fig13) digest() (string, error) {
	type entry struct {
		Label    string
		Seed     int64
		Duration int64
		Traj     string
	}
	var entries []entry
	for _, s := range w.specs {
		entries = append(entries, entry{s.Label, s.Seed, int64(s.Duration), fmt.Sprintf("%#v", s.Trajs)})
	}
	return jsonDigest(entries)
}

// buildSpec constructs one spec's network the way runner.Run does,
// without running it.
func buildSpec(s runner.RunSpec, telemetry bool, tr *tracer, parent, track int) (*core.Network, []interface{ Mbps(sim.Time) float64 }, error) {
	id := tr.begin("build", parent, track)
	cfg := wgtt.DefaultConfig(s.Scheme)
	cfg.Seed = s.Seed
	cfg.Telemetry = telemetry
	n, err := core.NewNetwork(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("attach", parent, track)
	defer tr.end(id)
	var flows []interface{ Mbps(sim.Time) float64 }
	for _, traj := range s.Trajs {
		c := n.AddClient(traj)
		if s.Transport == runner.TCP {
			f := wgtt.NewTCPDownlink(n, c, 0)
			n.Loop.After(s.Warmup, f.Start)
			flows = append(flows, f)
		} else {
			f := wgtt.NewUDPDownlink(n, c, s.OfferedMbps)
			n.Loop.After(s.Warmup, f.Start)
			flows = append(flows, f)
		}
	}
	return n, flows, nil
}

// setup is a build-only pass over the 20 rides, on one goroutine.
func (w *fig13) setup() (float64, error) {
	t0 := time.Now()
	for _, s := range w.specs {
		if _, _, err := buildSpec(s, false, nil, -1, 0); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

func (w *fig13) simSeconds() float64 {
	total := 0.0
	for _, s := range w.specs {
		total += s.Duration.Seconds()
	}
	return total
}

// ride fans the 20 rides out over runner.Map. Each ride builds its
// network as runner.Run does and advances it in 100 ms slices, so its
// slices are timed like every other workload's and, on a traced ride,
// its telemetry can be read afterwards.
func (w *fig13) ride(tr *tracer, cal *calibrator) (*ride, error) {
	r := &ride{simS: w.simSeconds(), workers: runtime.NumCPU()}
	root := tr.begin("ride", -1, 0)
	defer tr.end(root)
	n := len(w.specs)
	rideMs := make([]float64, n)
	slices := make([][]float64, n)
	snaps := make([]*telemetry.Snapshot, n)
	unowned := make([]bool, n)
	errs := make([]error, n)
	// Every worker calibrates in its own gaps while the others ride on.
	err := timeRide(r, tr != nil, cal, r.workers, func() error {
		r.flows = runner.Map(runner.Options{Exec: runner.Exec{Workers: r.workers}}, w.specs,
			func(i int, s runner.RunSpec) float64 {
				id := tr.begin("runner_ride", root, i)
				defer tr.end(id)
				t0 := time.Now()
				defer func() { rideMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6 }()
				net, flows, err := buildSpec(s, tr != nil, tr, id, i)
				if err == nil {
					slices[i], err = sliced(s.Duration, 1, tr, cal, id, i, func(t wgtt.Duration) error {
						net.Run(t)
						return nil
					})
				}
				if err != nil {
					errs[i] = err
					return -1
				}
				unowned[i] = flowsUnowned(net, []int{0})[0]
				if tr != nil {
					snaps[i] = net.MetricsSnapshot()
				}
				return flows[0].Mbps(net.Loop.Now())
			})
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	for _, sl := range slices {
		r.slicesMs = append(r.slicesMs, sl...)
	}
	r.unowned = unowned
	r.rideMs = rideMs
	if tr != nil {
		r.snap = telemetry.MergeSnapshots(snaps...)
	}
	return r, nil
}

// reference is the recorded figure at seeds 1–3 with the golden 15 mph
// values laid over it.
func (w *fig13) reference() (reference, error) {
	table, err := loadDigests()
	if err != nil {
		return reference{}, err
	}
	ref := reference{flows: make([]float64, len(w.specs)), source: "recorded digest " + digestFile + " + 15 mph golden figures"}
	for fs := int64(1); fs <= fig13Seeds; fs++ {
		rec, err := table.lookup("paper_fig13", fs)
		if err != nil {
			return reference{}, err
		}
		if len(rec) != 4*len(fig13Speeds) {
			return reference{}, fmt.Errorf("%s: paper_fig13 seed %d records %d rides, want %d", digestFile, fs, len(rec), 4*len(fig13Speeds))
		}
		g := goldenFig13[fs]
		copy(rec[fig13GoldenFirst:], g[:])
		for i, k := range w.keys {
			if k.seed == fs {
				ref.flows[i] = rec[k.index]
			}
		}
	}
	return ref, nil
}

// record stores the figure at each seed in fig13Speeds order.
func (w *fig13) record(t digestTable, flows []float64) {
	for fs := int64(1); fs <= fig13Seeds; fs++ {
		rec := make([]float64, 4*len(fig13Speeds))
		for i, k := range w.keys {
			if k.seed == fs {
				rec[k.index] = flows[i]
			}
		}
		t.set("paper_fig13", fs, rec)
	}
}
