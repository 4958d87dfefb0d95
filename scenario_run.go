package wgtt

import (
	"embed"
	"fmt"
	"io/fs"
	"path"
	"strings"

	"wgtt/internal/scenario"
	"wgtt/internal/stats"
)

// This file is the root-package bridge to internal/scenario: load or
// generate a declarative scenario, compile it, and build the compiled
// plan into a runnable ServeRun. It is the one construction path for
// the corridor experiments and every wgtt-serve scenario.

// ScenarioSpec is a declarative scenario (internal/scenario.Scenario).
type ScenarioSpec = scenario.Scenario

// CompiledScenario is a compiled scenario (internal/scenario.Compiled).
type CompiledScenario = scenario.Compiled

// scenarioFiles are the checked-in example scenarios, embedded so a
// bare name resolves identically from any working directory.
//
//go:embed examples/scenarios/*.yaml
var scenarioFiles embed.FS

// ScenarioNames lists the embedded example scenarios, the bare names
// LoadScenario accepts.
func ScenarioNames() []string {
	paths, _ := fs.Glob(scenarioFiles, "examples/scenarios/*.yaml")
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = strings.TrimSuffix(path.Base(p), ".yaml")
	}
	return names
}

// LoadScenario parses a scenario. A bare name, one with no path
// separator and no extension such as "corridor", resolves to the
// embedded examples/scenarios file of that name; anything else is a
// YAML or JSON file on disk.
func LoadScenario(name string) (*ScenarioSpec, error) {
	if strings.ContainsAny(name, "/.") {
		return scenario.ParseFile(name)
	}
	data, err := scenarioFiles.ReadFile("examples/scenarios/" + name + ".yaml")
	if err != nil {
		return nil, fmt.Errorf("unknown scenario %q (embedded: %s; or give a file path)",
			name, strings.Join(ScenarioNames(), ", "))
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// ParseScenario parses scenario bytes (YAML or JSON).
func ParseScenario(data []byte) (*ScenarioSpec, error) {
	return scenario.Parse(data)
}

// GenerateScenario builds a seeded random scenario; size is
// small | medium | large ("" = small).
func GenerateScenario(seed int64, size string) (*ScenarioSpec, error) {
	sc, err := scenario.ParseSizeClass(size)
	if err != nil {
		return nil, err
	}
	return scenario.Generate(seed, sc), nil
}

// CompileScenario validates and lowers a scenario. seed 0 defers to the
// scenario's own seed; non-zero overrides it.
func CompileScenario(s *ScenarioSpec, seed int64) (*CompiledScenario, error) {
	return scenario.Compile(s, seed)
}

// BuildScenarioRun constructs the compiled scenario's network and
// workload. opt.Seed, when non-zero, overrides the compiled seed;
// opt.Mutate layers execution-mode knobs (domain mode, telemetry,
// channel overrides) on the compiled config before the network builds.
func BuildScenarioRun(c *CompiledScenario, opt Options) *ServeRun {
	cfg := c.Config
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	n := NewNetwork(cfg)
	r := &ServeRun{Net: n, Cfg: cfg, Dur: c.Horizon, APsPerSegment: c.APsPerSegment, SpeedMPH: c.SpeedMPH}
	for i := range c.Clients {
		p := &c.Clients[i]
		cl := n.AddClient(p.Traj)
		var meter *throughput
		switch p.Workload {
		case scenario.WorkloadTCP:
			f := NewTCPDownlink(n, cl, 0)
			n.Loop.After(p.Start, f.Start)
			meter = f.Meter
		case scenario.WorkloadNone:
			// No traffic: an idle meter keeps Figures indexed by client.
			meter = stats.NewThroughput(100 * Millisecond)
		default:
			f := NewUDPDownlink(n, cl, p.RateMbps)
			n.Loop.After(p.Start, f.Start)
			meter = f.Meter
		}
		r.meters = append(r.meters, meter)
		r.clients = append(r.clients, cl)
	}
	return r
}

// LoadScenarioRun loads (see LoadScenario), compiles, and builds a
// scenario in one step.
func LoadScenarioRun(name string, opt Options) (*ServeRun, error) {
	s, err := LoadScenario(name)
	if err != nil {
		return nil, err
	}
	c, err := CompileScenario(s, opt.Seed)
	if err != nil {
		return nil, err
	}
	// Compile already resolved the seed; don't apply it twice.
	opt.Seed = 0
	return BuildScenarioRun(c, opt), nil
}
