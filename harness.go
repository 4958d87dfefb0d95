package wgtt

import (
	"fmt"
	"math"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/csi"
	"wgtt/internal/phy"
	"wgtt/internal/runner"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/workload"
)

// Exec is the execution half of an experiment configuration: run-level
// fan-out (Serial/Workers) and in-run segment parallelism
// (ParallelSegments). It is the runner's type re-exported, so
// runner.Options can embed the very same half and no translation layer
// is needed.
type Exec = runner.Exec

// Options configure an experiment run: the run-control half (Seed,
// Mutate) plus the embedded execution half (Serial, Workers,
// ParallelSegments). Field access is source-compatible with the old flat
// struct (opt.Serial still works); composite literals name the embedded
// half explicitly (Options{Seed: 1, Exec: Exec{Serial: true}}) or use
// NewOptions with functional options.
type Options struct {
	// Seed drives every random stream; the same seed reproduces the
	// same result bit for bit.
	Seed int64
	// Mutate, when non-nil, adjusts the network config before building
	// (used by ablation benches).
	Mutate func(*Config)
	// Metrics, when non-nil, enables telemetry on every spec-driven run
	// of the experiment and folds each run's end-of-run snapshot into
	// the collector, keyed by scheme and transport. Print the result
	// with MetricsCollector.Summary.
	Metrics *MetricsCollector
	// Exec is the execution half; see Exec.
	Exec
}

// Option mutates an Options value (functional-options constructor).
type Option func(*Options)

// NewOptions builds Options from DefaultOptions plus the given options.
func NewOptions(opts ...Option) Options {
	o := DefaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithSeed sets the experiment seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithMutate sets the config mutation hook.
func WithMutate(fn func(*Config)) Option { return func(o *Options) { o.Mutate = fn } }

// WithSerial forces the independent runs inside each experiment to
// execute one after another on the calling goroutine. Results are
// bit-identical either way.
func WithSerial(serial bool) Option { return func(o *Options) { o.Serial = serial } }

// WithWorkers caps the run-level parallel fan-out; <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithParallelSegments runs each multi-segment network's segments as
// conservatively synchronized event-loop domains (DomainsSerial: each
// round runs only the segments with an event due).
// Single-segment networks ignore it and stay on the exact serial path.
func WithParallelSegments(on bool) Option {
	return func(o *Options) { o.ParallelSegments = on }
}

// WithMetrics aggregates per-run telemetry into the collector; see
// Options.Metrics.
func WithMetrics(c *MetricsCollector) Option {
	return func(o *Options) { o.Metrics = c }
}

// mutateFirst returns o with pre applied to the config ahead of
// o.Mutate, so the caller's own mutation keeps the last word.
func (o Options) mutateFirst(pre func(*Config)) Options {
	inner := o.Mutate
	o.Mutate = func(c *Config) {
		pre(c)
		if inner != nil {
			inner(c)
		}
	}
	return o
}

// runSpecs executes a batch of drive-by throughput runs on the runner and
// returns goodputs in spec order.
func runSpecs(opt Options, specs []runner.RunSpec) []float64 {
	return runner.RunAll(runner.Options{Exec: opt.Exec}, specs)
}

// runAll executes arbitrary independent experiment jobs (each building its
// own network) on the runner, returning results in job order.
func runAll[R any](opt Options, jobs []func() R) []R {
	return runner.Map(runner.Options{Exec: opt.Exec}, jobs, func(_ int, job func() R) R { return job() })
}

// throughputSpec describes one bulk-flow drive-by as a runner spec.
func throughputSpec(scheme Scheme, opt Options, trajs []Trajectory, dur Duration, tcp bool) runner.RunSpec {
	tr := runner.UDP
	if tcp {
		tr = runner.TCP
	}
	spec := runner.RunSpec{
		Scheme:      scheme,
		Seed:        opt.Seed,
		Mutate:      opt.Mutate,
		Trajs:       trajs,
		Duration:    dur,
		Transport:   tr,
		OfferedMbps: offeredUDPMbps,
		Warmup:      warmup,
		Metrics:     opt.Metrics,
	}
	if opt.ParallelSegments {
		spec.Domains = core.DomainsSerial
	}
	return spec
}

// DefaultOptions returns the options used throughout EXPERIMENTS.md.
func DefaultOptions() Options { return Options{Seed: 1} }

// warmup delays workload start past association and controller adoption,
// as any real flow begins after the client has joined the network.
const warmup = 100 * Millisecond

// startAfterWarmup schedules a workload start.
func startAfterWarmup(n *Network, start func()) {
	n.Loop.After(warmup, start)
}

// offeredUDPMbps is the saturating downlink load the end-to-end
// experiments offer, standing in for the paper's 50–90 Mbit/s iperf
// runs scaled to our channel.
const offeredUDPMbps = 30

// buildNetwork constructs a network for a scheme with the experiment's
// seed.
func buildNetwork(scheme Scheme, opt Options) *Network {
	cfg := DefaultConfig(scheme)
	cfg.Seed = opt.Seed
	if opt.ParallelSegments {
		cfg.Domains = core.DomainsSerial
	}
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	return NewNetwork(cfg)
}

// driveAcross returns a trajectory that crosses the whole AP array at
// the given speed, plus the sim duration of the crossing. The run spans
// 5 m of lead-in/out beyond the array.
func driveAcross(cfg *Config, mph float64) (Linear, Duration) {
	lo, hi := cfg.RoadSpanX()
	const margin = 5.0
	traj := Drive(lo-margin, 0, mph)
	dist := (hi + margin) - (lo - margin)
	secs := dist / traj.SpeedMps()
	return traj, Duration(secs * float64(Second))
}

// meanPerClientMbps runs one drive-by with nClients at speed mph under
// scheme, with either TCP or UDP bulk downlink to every client, and
// returns the average per-client goodput.
func meanPerClientMbps(scheme Scheme, opt Options, trajs []Trajectory, dur Duration, tcp bool) float64 {
	return runner.Run(throughputSpec(scheme, opt, trajs, dur, tcp))
}

// potentialMbps integrates the oracle link capacity over a drive: at
// every sample the best AP's ESNR is mapped to the highest sustainable
// PHY rate, discounted by a fixed MAC efficiency. This is the
// "channel capacity" that Fig. 4 and Fig. 21 compare deliveries against.
func potentialMbps(n *Network, clientID int, samples *[]float64) func() {
	return func() {
		best := 0.0
		for ap := 0; ap < n.TotalAPs(); ap++ {
			esnr := n.LinkESNRdB(ap, clientID)
			r := phy.BestRateFor(esnr, 0)
			if esnr < phy.Rates[0].ThresholdDB {
				continue // no rate sustainable
			}
			if r.Mbps > best {
				best = r.Mbps
			}
		}
		*samples = append(*samples, best*macEfficiency)
	}
}

// macEfficiency discounts PHY rate to achievable MAC-layer goodput
// (preamble, contention, BA exchange, headers).
const macEfficiency = 0.75

// sampleEvery schedules fn at a fixed cadence for the whole run.
func sampleEvery(n *Network, period Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		n.Loop.After(period, tick)
	}
	n.Loop.After(period, tick)
}

// fmtTable renders rows of labeled values in a paper-like layout.
func fmtTable(header []string, rows [][]string) string {
	var b strings.Builder
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, v := range r {
			if i < len(width) && len(v) > width[i] {
				width[i] = len(v)
			}
		}
	}
	line := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], v)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// f1 formats a float with one decimal, rendering +Inf as the paper's ∞.
func f1(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.1f", v)
}

func f2(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

// Internal aliases used by the experiment files.
type (
	coreNetwork = core.Network
	throughput  = stats.Throughput
)

var (
	_ = csi.RefModulation
	_ = workload.PortUplink
	_ = sim.Second
)
