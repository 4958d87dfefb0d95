package wgtt

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wgtt/internal/core"
)

// goldenCorridorTelemetry pins the sha256 of the corridor's full
// metrics snapshot text (telemetry on, DomainsSerial) for seeds 1–3,
// as the hand-built corridor emitted it before that construction path
// was folded into the compiled corridor.yaml. The figure half of the
// corridor contract is goldenCorridor (TestCorridorDomainParity).
var goldenCorridorTelemetry = map[int64]string{
	1: "6ea28a38967922b5822d124ff03931f9c99468a2d8afdbb66a06579f95b43cbd",
	2: "a52236d867af46a20ffe78f72c7b41db22b000fbf8fc18ab48a2ccc097ca7203",
	3: "e632b8fc8c8e4b7d6c24ae49b51203ae521fb290ef97321aba022ad32f5d45f1",
}

// TestScenarioCorridorGolden is the telemetry faithfulness gate: the
// compiled corridor scenario, served by bare name, must emit the
// pinned metrics snapshot byte for byte for seeds 1–3.
func TestScenarioCorridorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("one full corridor ride per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r, err := BuildServeScenario("corridor", Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			r.Net.Run(r.Dur)
			text := snapshotText(t, r.Net.MetricsSnapshot())
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != goldenCorridorTelemetry[seed] {
				t.Errorf("corridor telemetry drifted: sha256 %s, want %s", got, goldenCorridorTelemetry[seed])
			}
		})
	}
}

// scenarioParityRender runs a generated scenario in the given mode and
// renders everything comparable: per-client figures plus the full
// telemetry snapshot.
func scenarioParityRender(t *testing.T, spec *ScenarioSpec, mode core.DomainMode) (string, *Network) {
	t.Helper()
	comp, err := CompileScenario(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := BuildScenarioRun(comp, Options{Mutate: func(c *Config) {
		c.Telemetry = true
		c.Domains = mode
	}})
	r.Net.Run(r.Dur)
	var mbps []float64
	for _, f := range r.Figures(nil) {
		mbps = append(mbps, f.Mbps)
	}
	return fmt.Sprintf("%#v\n", mbps) + snapshotText(t, r.Net.MetricsSnapshot()), r.Net
}

// TestGeneratedScenarioParity is the property-test harness over the
// scenario generator: for seeds 1–10, a generated transit network must
// run bit-identically (figures + telemetry) under DomainsSerial and
// DomainsParallel, and the federation ownership directory must account
// for every client at the end of the run.
func TestGeneratedScenarioParity(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty generated-network runs")
	}
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		// Cycle the size classes so the sweep covers more than one shape.
		size := []string{"small", "medium", "large"}[seed%3]
		t.Run(fmt.Sprintf("seed%d-%s", seed, size), func(t *testing.T) {
			t.Parallel()
			spec, err := GenerateScenario(seed, size)
			if err != nil {
				t.Fatal(err)
			}
			serial, sn := scenarioParityRender(t, spec, core.DomainsSerial)
			parallel, pn := scenarioParityRender(t, spec, core.DomainsParallel)
			if serial != parallel {
				t.Errorf("generated scenario diverged between domain modes\n%s",
					firstDiff(serial, parallel))
			}
			if lost := sn.LostClients(); len(lost) != 0 {
				t.Errorf("serial run lost clients %v", lost)
			}
			if lost := pn.LostClients(); len(lost) != 0 {
				t.Errorf("parallel run lost clients %v", lost)
			}
		})
	}
}

// TestScenarioExamplesCompile keeps every checked-in example loadable:
// each must parse, validate, compile, and pass core config validation.
// (allday.yaml's six-hour horizon makes running it here unreasonable;
// compiling it is the contract.)
func TestScenarioExamplesCompile(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenarios found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := CompileScenario(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := comp.Config.Validate(); err != nil {
				t.Fatal(err)
			}
			if comp.Digest() == "" || comp.Horizon <= 0 {
				t.Fatalf("degenerate compile: digest=%q horizon=%v", comp.Digest(), comp.Horizon)
			}
		})
	}
}

// TestServeScenarioFile checks the wgtt-serve path: a scenario file
// name builds a telemetry-on, domain-mode ServeRun, and the file's own
// seed survives unless the caller overrides it. A bare name resolves to
// the embedded example, which must compile exactly like the checked-in
// file; an unknown bare name lists the embedded ones.
func TestServeScenarioFile(t *testing.T) {
	path := filepath.Join("examples", "scenarios", "trackside.yaml")
	sr, err := BuildServeScenario(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Cfg.Telemetry {
		t.Error("serve scenario built without telemetry")
	}
	if sr.Cfg.Domains != core.DomainsSerial {
		t.Errorf("serve scenario domains %v, want DomainsSerial", sr.Cfg.Domains)
	}
	if sr.Cfg.Seed != 7 {
		t.Errorf("seed %d, want the file's seed 7", sr.Cfg.Seed)
	}
	if sr.Cfg.ChannelBackend != "mmwave60g" {
		t.Errorf("channel backend %q, want the file's mmwave60g", sr.Cfg.ChannelBackend)
	}
	sr, err = BuildServeScenario(path, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cfg.Seed != 5 {
		t.Errorf("seed %d, want the override 5", sr.Cfg.Seed)
	}
	if _, err := BuildServeScenario("no/such/file.yaml", Options{}); err == nil {
		t.Error("missing scenario file did not error")
	}

	var digests []string
	for _, name := range []string{"corridor", filepath.Join("examples", "scenarios", "corridor.yaml")} {
		spec, err := LoadScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := CompileScenario(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, comp.Digest())
	}
	if digests[0] != digests[1] {
		t.Errorf("embedded corridor digest %s, checked-in file %s", digests[0], digests[1])
	}
	_, err = BuildServeScenario("nosuch", Options{})
	if err == nil {
		t.Fatal("unknown bare scenario name did not error")
	}
	for _, name := range append(ScenarioNames(), "corridor", "shuttle") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
}

// TestServeSeedFromAnyDirectory runs wgtt-serve outside the repository
// on the embedded examples: without -seed the file's seed rules, and an
// explicit -seed overrides it.
func TestServeSeedFromAnyDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs wgtt-serve")
	}
	bin := serveBin(t)
	for _, tc := range []struct {
		args []string
		seed int64
	}{
		{[]string{"-scenario", "shuttle"}, 1},
		{[]string{"-scenario", "trackside"}, 7},
		{[]string{"-scenario", "corridor", "-seed", "5"}, 5},
	} {
		cmd := exec.Command(bin, append(tc.args, "-until", "10", "-report")...)
		cmd.Dir = t.TempDir()
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("wgtt-serve %v: %v", tc.args, err)
		}
		var rep ServeReport
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("wgtt-serve %v report: %v", tc.args, err)
		}
		if rep.Seed != tc.seed {
			t.Errorf("wgtt-serve %v ran seed %d, want %d", tc.args, rep.Seed, tc.seed)
		}
	}
}

// TestShuttleStaysInHomeSegment pins the street-block demo's premise:
// over the whole horizon each shuttle client stays inside its home
// segment's AP span (client 0 in seg0, client 1 in seg2), so a
// partition cut between segments never migrates a client.
func TestShuttleStaysInHomeSegment(t *testing.T) {
	spec, err := LoadScenario("shuttle")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileScenario(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := comp.Config
	for i, home := range []int{0, 2} {
		first := 0
		for _, seg := range cfg.Segments[:home] {
			first += seg.NumAPs
		}
		lo := cfg.APPosition(first).X
		hi := cfg.APPosition(first + cfg.Segments[home].NumAPs - 1).X
		for at := Time(0); at <= Time(comp.Horizon); at += Time(10 * Millisecond) {
			if x := comp.Clients[i].Traj.Pos(at).X; x < lo || x > hi {
				t.Fatalf("client %d at x=%.2f m (t=%v) left seg%d's AP span [%g, %g]", i, x, at, home, lo, hi)
			}
		}
	}
	if _, err := BuildServeScenario("shuttle", Options{}); err != nil {
		t.Fatal(err)
	}
}
