// Package scenario is the declarative scenario layer: a transit network
// described as data — a road of chained AP segments with intersections
// and U-turn points, bus routes with timetables and stops, client
// populations that board and alight at those stops, and per-route speed
// profiles from walking pace to the trackside regime — that validates
// and compiles deterministically to the simulator's core.Config plus
// per-client trajectory/workload plans.
//
// A scenario file is YAML (a small, dependency-free subset; see yaml.go)
// or JSON; both bind to the same Scenario struct with unknown fields
// rejected. Compile is a pure function of the Scenario value: no clock,
// no ambient randomness, no map iteration — the same scenario always
// compiles to the bit-identical deployment, which is what keeps the
// corridor experiment, built from examples/scenarios/corridor.yaml, on
// its golden pins byte for byte and what the CI digest gate checks.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"

	"wgtt/internal/sim"
)

// Dur is a virtual duration in a scenario file. It unmarshals from a
// Go duration string ("250ms", "8s", "6h") or a bare number of seconds.
type Dur sim.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dur) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %v", s, err)
		}
		*d = Dur(td)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("bad duration %s: want \"250ms\"-style string or seconds", b)
	}
	*d = Dur(secs * float64(sim.Second))
	return nil
}

// MarshalJSON implements json.Marshaler (round-trips as a duration
// string).
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// D converts to the simulator's duration type.
func (d Dur) D() sim.Duration { return sim.Duration(d) }

// Scenario is one declarative transit-network scenario.
type Scenario struct {
	// Name labels the scenario in reports and digests.
	Name string `json:"name"`
	// Seed is the default simulation seed (0 = 1); an explicit CLI
	// -seed overrides it, which is how the golden tests sweep seeds
	// over one checked-in file.
	Seed int64 `json:"seed,omitempty"`
	// Scheme selects the roaming system: wgtt (default) | 11r |
	// stock11r.
	Scheme string `json:"scheme,omitempty"`
	// Channel selects the channel-model backend: wifi5g (default) |
	// mmwave60g.
	Channel string `json:"channel,omitempty"`
	// Horizon is the simulated run length. Zero derives it from the
	// timetable: the latest route-run completion time. Because every
	// horizon is a seeded virtual duration — never a wall-clock date —
	// day-scale scenarios ("6h") replay bit-identically.
	Horizon Dur `json:"horizon,omitempty"`
	// Federation enables the cross-segment federation layer (needs >= 2
	// segments).
	Federation bool `json:"federation,omitempty"`
	// RingTrunk closes the trunk chain into a ring (implies Federation;
	// needs >= 3 segments).
	RingTrunk bool `json:"ring-trunk,omitempty"`

	Road    Road         `json:"road"`
	Routes  []Route      `json:"routes"`
	Clients []Population `json:"clients,omitempty"`
}

// Road is the roadway: chained AP segments plus the point features
// (intersections, U-turn bays) routes may reference.
type Road struct {
	// Segments chains the road's coverage segments in driving order.
	Segments []Segment `json:"segments"`
	// Spacing is the default AP pitch in meters (0 = the testbed's
	// 7.5 m).
	Spacing float64 `json:"spacing,omitempty"`
	// Setback is the default AP setback from the near lane (0 = the
	// testbed's 18 m).
	Setback float64 `json:"setback,omitempty"`
	// FirstAPX places the first AP (default 0).
	FirstAPX float64 `json:"first-ap-x,omitempty"`
	// UTurns lists the x positions where a route may legally reverse;
	// a route's uturn-at must name one of them.
	UTurns []float64 `json:"uturns,omitempty"`
	// Intersections annotates cross-street positions; each must lie on
	// the road span. (Generators use them to place stops and U-turns.)
	Intersections []float64 `json:"intersections,omitempty"`
}

// Segment is one road segment's AP placement. Zero fields inherit the
// road defaults, exactly like deploy.SegmentSpec.
type Segment struct {
	// APs is the segment's AP count.
	APs int `json:"aps"`
	// Spacing overrides the AP pitch for this segment.
	Spacing float64 `json:"spacing,omitempty"`
	// Setback overrides the AP setback for this segment.
	Setback float64 `json:"setback,omitempty"`
	// Gap is the distance from the previous segment's last AP (0 = one
	// pitch).
	Gap float64 `json:"gap,omitempty"`
}

// Route is one transit line: a speed profile along the road, optional
// stops, and a timetable of departures. Exactly one of MPH and Mps
// sets the cruise speed; the range spans walking pace (1 m/s) through
// the trackside regime (30+ m/s).
type Route struct {
	Name string `json:"name"`
	// Lane is the y offset of the driving lane (0 = near lane;
	// negative = farther from the APs).
	Lane float64 `json:"lane,omitempty"`
	// MPH is the cruise speed in miles per hour.
	MPH float64 `json:"mph,omitempty"`
	// Mps is the cruise speed in meters per second.
	Mps float64 `json:"mps,omitempty"`
	// Stops places this many stops evenly across the road span
	// (mobility.RouteStops). Mutually exclusive with StopsAt.
	Stops int `json:"stops,omitempty"`
	// StopsAt lists explicit stop x positions in driving order.
	StopsAt []float64 `json:"stops-at,omitempty"`
	// Dwell is how long a run waits at each stop.
	Dwell Dur `json:"dwell,omitempty"`
	// LeadIn is how far before the first AP the route enters (and past
	// the last AP it exits); 0 = the experiments' 5 m margin.
	LeadIn float64 `json:"lead-in,omitempty"`
	// Reverse drives the route in -X, entering past the last AP.
	// Reverse routes cannot have stops or a U-turn.
	Reverse bool `json:"reverse,omitempty"`
	// UTurnAt drives forward to this x, reverses, and returns to the
	// route start. It must name a declared road U-turn point, and the
	// route must be stop-free.
	UTurnAt *float64 `json:"uturn-at,omitempty"`
	// Departures is the timetable: run start offsets, strictly
	// increasing. Mutually exclusive with Headway/Runs. Empty with no
	// Headway means a single departure at 0.
	Departures []Dur `json:"departures,omitempty"`
	// Headway generates a periodic timetable: Runs departures spaced
	// Headway apart starting at 0.
	Headway Dur `json:"headway,omitempty"`
	// Runs is the departure count of a Headway timetable.
	Runs int `json:"runs,omitempty"`
}

// Workload names a client population's traffic.
type Workload string

// Workloads.
const (
	// WorkloadUDP is the saturating iperf-style CBR downlink.
	WorkloadUDP Workload = "udp"
	// WorkloadTCP is the bulk TCP downlink.
	WorkloadTCP Workload = "tcp"
	// WorkloadNone attaches no traffic (the client only associates and
	// roams).
	WorkloadNone Workload = "none"
)

// Population is a group of clients riding one route departure. Without
// Board/Alight the clients ride the whole run (vehicles on the road);
// with them the clients wait at the boarding stop, ride the vehicle
// between the two stops, and remain at the alighting stop — the
// boarding/alighting churn of a transit line.
type Population struct {
	// Route names the route the population rides.
	Route string `json:"route"`
	// Departure indexes the route's timetable (default 0).
	Departure int `json:"departure,omitempty"`
	// Count is the group size (0 = 1).
	Count int `json:"count,omitempty"`
	// Gap is the follow distance in meters between successive clients
	// of a stop-free route (0 = the experiments' 3 m). Populations on
	// stop-bearing routes share the vehicle and ignore it.
	Gap float64 `json:"gap,omitempty"`
	// Board is the stop index where the clients board (nil = ride from
	// the route start).
	Board *int `json:"board,omitempty"`
	// Alight is the stop index where the clients alight (nil = ride to
	// the route end). Must be after Board.
	Alight *int `json:"alight,omitempty"`
	// Workload is the attached traffic: udp (default) | tcp | none.
	Workload Workload `json:"workload,omitempty"`
	// RateMbps is the UDP offered load (0 = the experiments' 30).
	RateMbps float64 `json:"rate,omitempty"`
	// Start delays the workload start. 0 = the run's departure time
	// plus the experiments' 100 ms post-association warmup; an
	// explicit value is an absolute offset from the start of the run
	// (set it to model pre-departure traffic).
	Start Dur `json:"start,omitempty"`
}

// Schema defaults, shared with the hand-built experiments so a
// scenario that omits them compiles onto the exact same numbers.
const (
	// DefaultLeadIn is the drive-across margin past each end of the AP
	// array (harness.driveAcross's margin).
	DefaultLeadIn = 5.0
	// DefaultFollowGap is the following-pattern client spacing
	// (mobility.Following's 3 m).
	DefaultFollowGap = 3.0
	// DefaultRateMbps is the saturating UDP offered load
	// (harness.offeredUDPMbps).
	DefaultRateMbps = 30.0
	// DefaultWarmup delays workload start past association
	// (harness.warmup).
	DefaultWarmup = 100 * sim.Millisecond
	// MaxSpeedMps bounds route speeds: past high-speed-rail pace the
	// channel coherence assumptions are meaningless.
	MaxSpeedMps = 130.0
)

// speedMps resolves the route's cruise speed in m/s (0 when unset;
// Validate rejects that).
func (r *Route) speedMps() float64 {
	if r.Mps != 0 {
		return r.Mps
	}
	return mphToMps(r.MPH)
}
