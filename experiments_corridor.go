package wgtt

import (
	"fmt"

	"wgtt/internal/core"
	"wgtt/internal/rf"
)

// CorridorResult is the transit-corridor scenario at deployment scale:
// two vehicles riding the full length of a three-segment roadway under
// WGTT with saturating UDP downlink. It is the workload the per-segment
// domain execution (-parallel-segments) is built for, and the fixture the
// domain parity tests pin.
type CorridorResult struct {
	Segments      int
	APsPerSegment int
	SpeedMPH      float64
	PerClientMbps []float64
	MeanMbps      float64
}

// CorridorThroughput rides two following clients at 25 mph across a
// three-segment corridor (4 APs per segment at the paper's 7.5 m pitch)
// and reports per-client UDP goodput. With Options.ParallelSegments the
// segments execute as parallel event-loop domains; otherwise the ride
// runs on the exact single-loop path.
func CorridorThroughput(opt Options) CorridorResult {
	mode := core.SingleLoop
	if opt.ParallelSegments {
		mode = core.DomainsParallel
	}
	return corridorRide(opt, mode)
}

// corridorRide is the mode-explicit form the domain parity tests drive:
// DomainsSerial and DomainsParallel must render bit-identically.
func corridorRide(opt Options, mode core.DomainMode) CorridorResult {
	return corridorRideN(opt, mode, 3, 0)
}

// corridorRun builds the compiled examples/scenarios/corridor.yaml with
// its road set to the given number of segments, each like the file's
// first, and its horizon capped at maxDur when positive. pre adjusts
// the config ahead of opt.Mutate. CorridorThroughput, CorridorMMWave and
// wgtt-serve's "corridor" scenario all build from the one file, so a
// partitioned multi-process run builds the bit-identical network the
// parity pins reference.
func corridorRun(opt Options, segments int, maxDur Duration, pre func(*Config)) *ServeRun {
	spec, err := LoadScenario("corridor")
	if err != nil {
		panic(err) // the embedded example is part of the binary
	}
	seg := spec.Road.Segments[0]
	spec.Road.Segments = nil
	for i := 0; i < segments; i++ {
		spec.Road.Segments = append(spec.Road.Segments, seg)
	}
	c, err := CompileScenario(spec, opt.Seed)
	if err != nil {
		panic(err)
	}
	c.Config.Seed = opt.Seed // an experiment seed of 0 is a seed, not "the file's"
	if maxDur > 0 && c.Horizon > maxDur {
		c.Horizon = maxDur
	}
	return BuildScenarioRun(c, opt.mutateFirst(pre))
}

// corridorRideN is the ride at an arbitrary corridor length; the domain
// benchmark uses it to scale the domain count past the core count. A
// zero maxDur rides the full corridor; a positive one caps the sim time
// (a long corridor is then only partially ridden, which is fine for
// timing — every domain still advances through the whole window).
func corridorRideN(opt Options, mode core.DomainMode, segments int, maxDur Duration) CorridorResult {
	r := corridorRun(opt, segments, maxDur, func(c *Config) { c.Domains = mode })
	r.Net.Run(r.Dur)
	return r.corridorResult()
}

// corridorResult reads a corridor ride's per-client goodput at the
// current virtual time.
func (r *ServeRun) corridorResult() CorridorResult {
	res := CorridorResult{Segments: len(r.Cfg.Segments), APsPerSegment: r.APsPerSegment, SpeedMPH: r.SpeedMPH}
	for _, f := range r.Figures(nil) {
		res.PerClientMbps = append(res.PerClientMbps, f.Mbps)
	}
	res.MeanMbps = mean(res.PerClientMbps)
	return res
}

// CorridorFedResult is the federated corridor under trunk faults: the
// ride summary plus the re-locate protocol's scoreboard.
type CorridorFedResult struct {
	CorridorResult
	Relocates   int
	Abandoned   int
	OutageDrops int64
	RandomDrops int64
	Lost        int
}

// CorridorFederated rides a four-segment ring-federated corridor with a
// canned trunk fault schedule: one client drives straight through while
// a second U-turns mid-corridor, and an interior trunk blacks out for
// two seconds on top of random trunk drops and delay jitter. The ride
// exercises the whole recovery surface — directory re-locates, claim and
// export retries, routing around the downed trunk — and reports whether
// every client came out owned.
func CorridorFederated(opt Options) CorridorFedResult {
	const apsPer = 4
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = opt.Seed
	cfg.Segments = []SegmentSpec{{NumAPs: apsPer}, {NumAPs: apsPer}, {NumAPs: apsPer}, {NumAPs: apsPer}}
	cfg.Federation.Enabled = true
	cfg.Federation.Ring = true
	cfg.Trunk.Faults = FaultSchedule{
		Outages:   []Outage{{A: 1, B: 2, Start: 2 * Second, End: 4 * Second}},
		DropProb:  0.02,
		JitterMax: 40 * Microsecond,
	}
	cfg.Telemetry = true // the result reports trunk drop counters
	if opt.ParallelSegments {
		cfg.Domains = core.DomainsParallel
	}
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	n := NewNetwork(cfg)

	trajs := []Trajectory{
		Drive(-5, 0, 25),
		NewWaypoints([]Waypoint{
			{At: 0, Pos: rf.Position{X: 10}},
			{At: 4 * Second, Pos: rf.Position{X: 75}},
			{At: 9 * Second, Pos: rf.Position{X: 12}},
		}),
	}
	var meters []*throughput
	for _, traj := range trajs {
		c := n.AddClient(traj)
		f := NewUDPDownlink(n, c, offeredUDPMbps)
		startAfterWarmup(n, f.Start)
		meters = append(meters, f.Meter)
	}
	n.Run(10 * Second)

	res := CorridorFedResult{CorridorResult: CorridorResult{
		Segments: len(cfg.Segments), APsPerSegment: apsPer, SpeedMPH: 25,
	}}
	for _, m := range meters {
		res.PerClientMbps = append(res.PerClientMbps, m.MeanMbps(n.Loop.Now()))
	}
	res.MeanMbps = mean(res.PerClientMbps)
	for _, f := range n.FederationNodes() {
		res.Relocates += f.Relocates
		res.Abandoned += f.RelocatesAbandoned
	}
	res.OutageDrops, res.RandomDrops = n.TrunkFaultDrops()
	res.Lost = len(n.LostClients())
	return res
}

// String renders the federated ride summary.
func (r CorridorFedResult) String() string {
	return r.CorridorResult.String() + fmt.Sprintf(
		"federation: %d re-locates (%d abandoned); trunk drops: %d outage, %d random; lost clients: %d\n",
		r.Relocates, r.Abandoned, r.OutageDrops, r.RandomDrops, r.Lost)
}

// String renders the ride summary.
func (r CorridorResult) String() string {
	rows := make([][]string, 0, len(r.PerClientMbps)+1)
	for i, v := range r.PerClientMbps {
		rows = append(rows, []string{fmt.Sprintf("client %d", i+1), f1(v)})
	}
	rows = append(rows, []string{"mean", f1(r.MeanMbps)})
	return fmt.Sprintf("Corridor — %d segments × %d APs, %g mph, UDP downlink\n",
		r.Segments, r.APsPerSegment, r.SpeedMPH) + fmtTable([]string{"", "Mbit/s"}, rows)
}
