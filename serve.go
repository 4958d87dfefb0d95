package wgtt

import (
	"wgtt/internal/trace"
)

// This file is the scenario surface of wgtt-serve, the long-running
// multi-process daemon. A partitioned run is SPMD: every process calls
// BuildServeScenario with the identical name and options, constructs
// the identical Network, and then executes only its owned share of the
// domain graph (Network.RunPartitioned). Every scenario is a compiled
// scenario file, and the in-process corridor ride (CorridorThroughput)
// builds from the same compiled corridor.yaml, so a sharded "corridor"
// run is bit-comparable to it — that is what the multi-process parity
// test pins.

// ServeRun is a constructed-but-not-yet-run scenario: the network, its
// workload, and how long to ride. Callers advance it with Net.Run (one
// process) or Net.RunPartitioned (a sharded run), then read Figures.
type ServeRun struct {
	Net *Network
	Cfg Config
	// Dur is the scenario's natural end time.
	Dur Duration
	// APsPerSegment and SpeedMPH echo the scenario shape for reports.
	APsPerSegment int
	SpeedMPH      float64

	meters  []*throughput
	clients []*Client
}

// Now returns the scenario's current virtual time: the coordinator
// clock in a domain-mode network (the only clock that advances on
// every process of a partitioned run), the event loop otherwise.
func (r *ServeRun) Now() Time {
	if r.Net.Coord != nil {
		return r.Net.Coord.Now()
	}
	return r.Net.Loop.Now()
}

// ServeClient is one client's goodput figure in a ServeReport.
type ServeClient struct {
	ID   int     `json:"id"`
	Mbps float64 `json:"mbps"`
	// Owned reports whether this process's reading is authoritative:
	// the client's radio currently resides in a segment domain the
	// process executes. Exactly one process reports Owned per client.
	Owned bool `json:"owned"`
}

// Figures reads every client's mean goodput at the current virtual
// time. owned is the process's domain-ownership set from a partitioned
// run (marks which figures are authoritative); nil means a
// whole-network run, where every figure is.
func (r *ServeRun) Figures(owned map[string]bool) []ServeClient {
	now := r.Now()
	out := make([]ServeClient, 0, len(r.meters))
	for i, m := range r.meters {
		sc := ServeClient{ID: i, Mbps: m.MeanMbps(now), Owned: true}
		if owned != nil {
			sc.Owned = r.Net.OwnsClient(owned, r.clients[i])
		}
		out = append(out, sc)
	}
	return out
}

// ServeReport is one wgtt-serve process's end-of-run output (JSON on
// stdout with -report). Merging the parts of a partitioned run — keep
// each client figure from the process that owns it, stitch the metric
// shards with telemetry.MergeSnapshots — reproduces the single-process
// report bit for bit.
type ServeReport struct {
	Proc     int              `json:"proc"`
	Scenario string           `json:"scenario"`
	Seed     int64            `json:"seed"`
	NowNs    int64            `json:"now_ns"`
	Clients  []ServeClient    `json:"clients"`
	Metrics  *MetricsSnapshot `json:"metrics,omitempty"`
	// Trace and Anomalies are this process's flight-recorder shards
	// (-flight-recorder): records only from domains the process
	// executed, since remote domains never run here. Stitching every
	// process's Trace with StitchTrace reassembles the run's causal
	// timeline.
	Trace     []TraceRecord  `json:"trace,omitempty"`
	Anomalies []TraceAnomaly `json:"anomalies,omitempty"`
}

// TraceRecord is one flight-recorder entry (see internal/trace.Record).
type TraceRecord = trace.Record

// TraceAnomaly is one anomaly-trigger firing (internal/trace.Anomaly).
type TraceAnomaly = trace.Anomaly

// StitchTrace merges per-process flight-recorder shards into one
// deterministic causal timeline (internal/trace.Stitch).
func StitchTrace(shards ...[]TraceRecord) []TraceRecord { return trace.Stitch(shards...) }

// TraceHandoffs folds a stitched timeline into per-switch summaries
// (internal/trace.Handoffs).
func TraceHandoffs(recs []TraceRecord) []trace.Handoff { return trace.Handoffs(recs) }

// BuildServeScenario constructs a scenario for wgtt-serve: name is a
// bare embedded-example name ("corridor", "shuttle"; see ScenarioNames)
// or a scenario file path, resolved by LoadScenario. The compiled run
// serves with telemetry on and, on a multi-segment road, DomainsSerial
// within the process; parallelism comes from the partition. The file's
// own seed applies unless opt.Seed overrides it.
func BuildServeScenario(name string, opt Options) (*ServeRun, error) {
	return LoadScenarioRun(name, opt.mutateFirst(func(c *Config) {
		c.Telemetry = true
		// Domain mode needs a multi-segment deployment; a
		// single-segment scenario serves on the classic loop.
		if len(c.Segments) >= 2 {
			c.Domains = DomainsSerial
		}
	}))
}
