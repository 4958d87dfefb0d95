// Command wgtt-sim runs one end-to-end scenario on the simulated roadside
// testbed and prints a summary: scheme, speed, number of clients,
// workload, and duration are all flags.
//
//	wgtt-sim -scheme wgtt -mph 15 -clients 1 -workload udp -rate 30
//	wgtt-sim -scheme 11r -mph 25 -workload tcp -series
//	wgtt-sim -segments 8x7.5,8x7.5,8x7.5 -mph 25 -workload tcp
//	wgtt-sim -segments 8x7.5,8x7.5,8x7.5 -parallel-segments -workload udp
//	wgtt-sim -segments 4x7.5,4x7.5 -parallel-segments -flight-recorder 512
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"wgtt"
	"wgtt/internal/core"
	"wgtt/internal/trace"
)

// metricsFlag implements flag.Value for -metrics: the bare form
// (-metrics) selects the text format, the valued form (-metrics=prom)
// any of text | json | csv | prom.
type metricsFlag struct {
	on     bool
	format wgtt.MetricsFormat
}

func (f *metricsFlag) String() string { return "" }

func (f *metricsFlag) IsBoolFlag() bool { return true }

func (f *metricsFlag) Set(s string) error {
	if s == "true" { // bare -metrics
		f.on, f.format = true, wgtt.MetricsText
		return nil
	}
	if s == "false" { // -metrics=false
		f.on = false
		return nil
	}
	format, err := wgtt.ParseMetricsFormat(s)
	if err != nil {
		return err
	}
	f.on, f.format = true, format
	return nil
}

// startCPUProfile begins a pprof CPU profile; the returned func stops it.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile dumps a pprof heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	return pprof.WriteHeapProfile(f)
}

func main() {
	var (
		mph       = flag.Float64("mph", 15, "client speed (0 = parked mid-array)")
		clients   = flag.Int("clients", 1, "number of clients (following pattern)")
		workloadN = flag.String("workload", "udp", "udp | tcp | video | web | conference")
		rate      = flag.Float64("rate", 30, "UDP offered load, Mbit/s")
		series    = flag.Bool("series", false, "print 100 ms throughput series for client 0")
		traceOut  = flag.String("trace-out", "",
			"write the stitched flight-recorder timeline as Chrome trace_event JSON to this file (\"-\" = stdout) instead of the text dump; enables -flight-recorder 4096 when unset")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")

		scenarioPath = flag.String("scenario", "",
			"run a declarative scenario instead of the flag-built deployment: an embedded example ("+
				strings.Join(wgtt.ScenarioNames(), " | ")+") or a path to a scenario file (YAML or JSON)")
		genScenario = flag.String("gen-scenario", "",
			"run a generated scenario: SEED[:SIZE] with SIZE small | medium | large (e.g. 7:medium)")
		scenarioDigest = flag.Bool("scenario-digest", false,
			"with -scenario/-gen-scenario: print the compiled scenario's content digest and exit without running")
	)
	var metrics metricsFlag
	flag.Var(&metrics, "metrics", "print end-of-run metrics; optionally -metrics=text|json|csv|prom")

	// The deployment-shaping flags (-scheme, -seed, -segments, -channel,
	// -audibility, -parallel-segments, ...) come from the surface shared
	// with wgtt-serve, plus -config for a JSON options file.
	cfg, opts, err := wgtt.LoadConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *scenarioPath != "" || *genScenario != "" {
		if *scenarioPath != "" && *genScenario != "" {
			fmt.Fprintln(os.Stderr, "-scenario and -gen-scenario are mutually exclusive")
			os.Exit(2)
		}
		if err := runScenario(cfg, opts, *scenarioPath, *genScenario, *scenarioDigest, metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *scenarioDigest {
		fmt.Fprintln(os.Stderr, "-scenario-digest needs -scenario or -gen-scenario")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	scheme := cfg.Scheme
	cfg.Telemetry = metrics.on
	if *traceOut != "" && cfg.FlightRecorder == 0 {
		cfg.FlightRecorder = 4096
	}
	if opts.ParallelSegments && *workloadN != "udp" && *workloadN != "tcp" && *workloadN != "conference" {
		fmt.Fprintf(os.Stderr, "-parallel-segments supports the udp, tcp, and conference workloads, not %q\n", *workloadN)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	n := wgtt.NewNetwork(cfg)
	lo, hi := cfg.RoadSpanX()

	var trajs []wgtt.Trajectory
	var dur wgtt.Duration
	if *mph == 0 {
		for i := 0; i < *clients; i++ {
			trajs = append(trajs, wgtt.Stationary{X: (lo + hi) / 2, Y: float64(-3 * i)})
		}
		dur = 10 * wgtt.Second
	} else {
		trajs = wgtt.Scenario(wgtt.Following, *clients, lo-5, 0, *mph)
		dur = wgtt.Duration((hi - lo + 10) / trajs[0].SpeedMps() * 1e9)
	}

	type meterer interface{ Mbps(wgtt.Time) float64 }
	var udps []*wgtt.UDPDownlink
	var meters []meterer
	var videos []*wgtt.Video
	var pages []*wgtt.PageLoad
	var confs []*wgtt.Conference

	for _, traj := range trajs {
		c := n.AddClient(traj)
		switch *workloadN {
		case "udp":
			f := wgtt.NewUDPDownlink(n, c, *rate)
			n.Loop.After(100*wgtt.Millisecond, f.Start)
			udps = append(udps, f)
			meters = append(meters, f)
		case "tcp":
			f := wgtt.NewTCPDownlink(n, c, 0)
			n.Loop.After(100*wgtt.Millisecond, f.Start)
			meters = append(meters, f)
		case "video":
			v := wgtt.NewVideo(n, c)
			n.Loop.After(100*wgtt.Millisecond, v.Start)
			videos = append(videos, v)
		case "web":
			w := wgtt.NewPageLoad(n, c)
			n.Loop.After(100*wgtt.Millisecond, w.Start)
			pages = append(pages, w)
		case "conference":
			cf := wgtt.NewConference(n, c)
			if opts.ParallelSegments {
				// Domain mode: the call's client-side timers must be
				// armed from the construction goroutine before the
				// domains start, not from the server loop mid-run.
				cf.Start()
			} else {
				n.Loop.After(100*wgtt.Millisecond, cf.Start)
			}
			confs = append(confs, cf)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadN)
			os.Exit(2)
		}
	}

	n.Run(dur)
	now := n.Loop.Now()

	fmt.Printf("scheme=%v  speed=%v mph  clients=%d  workload=%s  sim=%.1fs\n\n",
		scheme, *mph, *clients, *workloadN, now.Seconds())
	for i, m := range meters {
		fmt.Printf("client %d: %.1f Mbit/s\n", i, m.Mbps(now))
	}
	for i, f := range udps {
		fmt.Printf("client %d: loss %.3f\n", i, f.Sink.LossRate())
	}
	for i, v := range videos {
		fmt.Printf("client %d: rebuffer ratio %.2f (%d stalls)\n", i, v.RebufferRatio(), v.Rebuffers())
	}
	for i, w := range pages {
		fmt.Printf("client %d: page load %.2f s (done=%v)\n", i, w.LoadTimeSeconds(), w.Done())
	}
	for i, cf := range confs {
		fmt.Printf("client %d: fps median %.0f, p85 %.0f\n", i,
			cf.FPSSamples.Quantile(0.5), cf.FPSSamples.Quantile(0.85))
	}
	if scheme == wgtt.SchemeWGTT {
		var issued, acked, dups, exported, imported int
		for _, ctrl := range n.Controllers() {
			issued += ctrl.SwitchesIssued
			acked += ctrl.SwitchesAcked
			dups += ctrl.UplinkDuplicates
			exported += ctrl.HandoffsExported
			imported += ctrl.HandoffsImported
		}
		fmt.Printf("\nswitches: %d issued, %d completed; uplink dups removed: %d\n",
			issued, acked, dups)
		if len(n.Controllers()) > 1 {
			fmt.Printf("cross-segment handoffs: %d exported, %d imported\n", exported, imported)
		}
		if nodes := n.FederationNodes(); len(nodes) > 0 {
			var rel, abandoned, releases int
			for _, f := range nodes {
				rel += f.Relocates
				abandoned += f.RelocatesAbandoned
			}
			for _, ctrl := range n.Controllers() {
				releases += ctrl.FedReleases
			}
			outage, random := n.TrunkFaultDrops()
			fmt.Printf("federation: %d re-locates (%d abandoned), %d releases; trunk drops: %d outage, %d random; lost clients: %d\n",
				rel, abandoned, releases, outage, random, len(n.LostClients()))
		}
	}
	if *traceOut == "" && cfg.FlightRecorder > 0 {
		fmt.Println("\nflight-recorder records (stitched):")
		_ = trace.DumpRecords(os.Stdout, n.FlightRecords())
	}
	if *traceOut != "" {
		out := os.Stdout
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := n.WriteChromeTrace(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *traceOut != "-" {
			fmt.Printf("\nflight-recorder timeline: %s (load in ui.perfetto.dev)\n", *traceOut)
		}
	}
	if anoms := n.FlightAnomalies(); len(anoms) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d anomalies triggered:\n", len(anoms))
		_ = trace.DumpAnomalies(os.Stderr, n.FlightRecords(), anoms, 5*wgtt.Millisecond)
	}
	if metrics.on {
		if snap := n.MetricsSnapshot(); snap != nil {
			fmt.Println()
			if err := snap.Write(os.Stdout, metrics.format); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *series && len(meters) > 0 {
		if f, ok := meters[0].(*wgtt.UDPDownlink); ok {
			ts, mbps := f.Meter.Series()
			fmt.Println("\nt(s)  Mbit/s")
			for i := range ts {
				fmt.Printf("%5.1f %6.1f\n", ts[i], mbps[i])
			}
		}
		if f, ok := meters[0].(*wgtt.TCPDownlink); ok {
			ts, mbps := f.Meter.Series()
			fmt.Println("\nt(s)  Mbit/s")
			for i := range ts {
				fmt.Printf("%5.1f %6.1f\n", ts[i], mbps[i])
			}
		}
	}
}

// flagWasSet reports whether the named flag was explicitly set on the
// command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseGenSpec splits a -gen-scenario argument: SEED[:SIZE].
func parseGenSpec(s string) (int64, string, error) {
	seedStr, size, _ := strings.Cut(s, ":")
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad -gen-scenario %q: want SEED[:SIZE]", s)
	}
	return seed, size, nil
}

// runScenario is the declarative-scenario path: load or generate a
// scenario, compile it, and either print the content digest (the CI
// determinism gate diffs two of these) or build and run it.
func runScenario(cfg wgtt.Config, opts wgtt.DeployOptions, name, gen string, digestOnly bool, metrics metricsFlag) error {
	var spec *wgtt.ScenarioSpec
	var err error
	if name != "" {
		spec, err = wgtt.LoadScenario(name)
	} else {
		var seed int64
		var size string
		if seed, size, err = parseGenSpec(gen); err == nil {
			spec, err = wgtt.GenerateScenario(seed, size)
		}
	}
	if err != nil {
		return err
	}
	// The scenario file's own seed rules unless -seed was explicitly
	// given (the default would otherwise silently override it).
	var seed int64
	if flagWasSet("seed") {
		seed = cfg.Seed
	}
	comp, err := wgtt.CompileScenario(spec, seed)
	if err != nil {
		return err
	}
	if digestOnly {
		fmt.Println(comp.Digest())
		return nil
	}
	r := wgtt.BuildScenarioRun(comp, wgtt.Options{Mutate: func(c *wgtt.Config) {
		c.Telemetry = metrics.on
		if opts.ParallelSegments && len(c.Segments) >= 2 {
			c.Domains = core.DomainsSerial
		}
		if cfg.Audibility != "" {
			c.Audibility = cfg.Audibility
		}
		if cfg.ChannelBackend != "" {
			c.ChannelBackend = cfg.ChannelBackend
		}
		if cfg.FlightRecorder != 0 {
			c.FlightRecorder = cfg.FlightRecorder
		}
	}})
	r.Net.Run(r.Dur)
	now := r.Net.Loop.Now()

	fmt.Printf("scenario=%s  seed=%d  segments=%d  sim=%.1fs\n\n",
		comp.Name, r.Cfg.Seed, len(r.Cfg.Segments), now.Seconds())
	for _, f := range r.Figures(nil) {
		fmt.Printf("client %d: %.1f Mbit/s\n", f.ID, f.Mbps)
	}
	if r.Cfg.Scheme == wgtt.SchemeWGTT {
		var issued, acked int
		for _, ctrl := range r.Net.Controllers() {
			issued += ctrl.SwitchesIssued
			acked += ctrl.SwitchesAcked
		}
		fmt.Printf("\nswitches: %d issued, %d completed", issued, acked)
		if len(r.Net.FederationNodes()) > 0 {
			fmt.Printf("; lost clients: %d", len(r.Net.LostClients()))
		}
		fmt.Println()
	}
	if metrics.on {
		if snap := r.Net.MetricsSnapshot(); snap != nil {
			fmt.Println()
			if err := snap.Write(os.Stdout, metrics.format); err != nil {
				return err
			}
		}
	}
	return nil
}
