// Command perfbench is the repository's benchmark: host time per
// simulated second, end to end and per layer, on four transit
// workloads. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload dense_cell --seed 1 --seconds 15 --trace 0
//
// Every workload's inputs are generated from --seed. With --trace 0 it
// rides the workload for about --seconds of host time with tracing off
// and reports the end-to-end metrics, with host times scaled to nominal
// host speed by a calibration kernel run between the timed steps (see
// calib.go). With --trace 1 it splits the time between untraced rides
// and traced rides (CPU profile, telemetry, barrier-wait stats and
// spans on) and reports the per-layer metrics, unscaled. Both check
// every ride's outputs against a reference. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	minRides  = 3  // timed rides behind the end-to-end medians, at the least
	minSetups = 5  // set-up samples behind setup_s, at the least
	setupTime = 10 // set-up sampling lasts at least 1/setupTime of --seconds
)

func main() {
	var (
		name    = flag.String("workload", "", "dense_cell | corridor_ride | split_ride | paper_fig13")
		seed    = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds = flag.Float64("seconds", 15, "host seconds to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		record  = flag.Bool("record", false, "store this run's per-flow goodputs as the seed's entry in "+digestFile)
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds float64, traced, record bool) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	inputs, err := checkGenerator(name, seed, w)
	if err != nil {
		return err
	}
	printHost(name, seed, inputs)

	var m *report
	var rides []*ride
	if traced {
		m, rides, err = measureLayers(name, w, seed, seconds)
	} else {
		m, rides, err = measureEndToEnd(w, seconds)
	}
	if err != nil {
		return err
	}

	ref, err := w.reference()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	attempted, failed := checkRides(rides, ref)
	fmt.Printf("check: %d of %d flows failed (failed_ratio %.4f) against %s\n",
		failed, attempted, float64(failed)/float64(attempted), ref.source)
	if record {
		rec, ok := w.(recorder)
		if !ok {
			return fmt.Errorf("%s checks against reference rides and records no digests", name)
		}
		table, err := loadDigests()
		if err != nil {
			return err
		}
		rec.record(table, rides[0].flows)
		if err := table.write(); err != nil {
			return err
		}
		fmt.Printf("recorded %s in %s\n", name, digestFile)
	}

	for _, n := range m.names {
		v := m.values[n]
		fmt.Printf("metric %-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
	out, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m.values})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// checkGenerator generates the workload's inputs a second time from the
// same seed and insists both give the same compiled-scenario (or input)
// digest.
func checkGenerator(name string, seed int64, w workload) (string, error) {
	d1, err := w.digest()
	if err != nil {
		return "", err
	}
	again, err := newWorkload(name, seed)
	if err != nil {
		return "", err
	}
	d2, err := again.digest()
	if err != nil {
		return "", err
	}
	if d1 != d2 {
		return "", fmt.Errorf("generator is not deterministic: seed %d gave input digests %s and %s", seed, d1, d2)
	}
	return d1, nil
}

// measureEndToEnd takes the set-up samples, then rides the workload
// untraced for about seconds of host time. Every host time it reports
// is scaled to nominal host speed by a calibrator run alongside (one
// for the set-ups, one per ride). Every ride repeats the same work, so
// a slice's time is its median over the rides: a burst of interference
// that stalls one ride's slice does not reach the slice percentiles.
func measureEndToEnd(w workload, seconds float64) (*report, []*ride, error) {
	var setups []float64
	cal := newCalibrator()
	t0 := time.Now()
	for len(setups) < minSetups || time.Since(t0).Seconds() < seconds/setupTime {
		runtime.GC() // every sample starts from a collected heap
		s, err := w.setup()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
		cal.after(time.Duration(s * float64(time.Second)))
	}
	rides, err := rideFor(w, nil, true, seconds, minRides)
	if err != nil {
		return nil, nil, err
	}
	m := newReport()
	var ratios, raw, speeds, allocs, heaps []float64
	for _, r := range rides {
		ratios = append(ratios, r.wallS*r.speed/r.simS)
		raw = append(raw, r.wallS/r.simS)
		speeds = append(speeds, r.speed)
		allocs = append(allocs, float64(r.mem.allocBytes)/1e6/r.simS)
		heaps = append(heaps, float64(r.peakHeap)/1e6)
	}
	slices := make([]float64, len(rides[0].slicesMs))
	for i := range slices {
		var ms []float64
		for _, r := range rides {
			ms = append(ms, r.slicesMs[i]*r.speed)
		}
		slices[i] = median(ms)
	}
	p95, pct := tail(slices)
	m.set("realtime_ratio", median(ratios), "s/s")
	m.set("setup_s", median(setups)*cal.speed(), "s")
	m.set("alloc_mb_per_sim_s", median(allocs), "MB/sim_s")
	m.set("peak_heap_mb", median(heaps), "MB")
	m.set("sim_goodput_mbps", mean(rides[0].flows), "Mbit/s")
	m.set("slice_p50_ms", median(slices), "ms")
	m.set("slice_p95_ms", p95, "ms")
	fmt.Printf("rides: %d, %.1f simulated s each; set-ups: %d; slices: %d per ride, tail is p%.1f\n",
		len(rides), rides[0].simS, len(setups), len(slices), pct)
	for i, r := range rides {
		fmt.Printf("ride %d: host speed %.4f, unscaled %.5g s/s\n", i, r.speed, r.wallS/r.simS)
	}
	fmt.Printf("host speed: set-up %.3f, rides %.3f..%.3f; unscaled realtime_ratio %.4g s/s, setup_s %.4g s\n",
		cal.speed(), minOf(speeds), maxOf(speeds), median(raw), median(setups))
	return m, rides, nil
}

// rideFor rides w until seconds of host time have passed, and at least
// min times; with calibrate, each ride runs its own calibrator.
func rideFor(w workload, tr *tracer, calibrate bool, seconds float64, min int) ([]*ride, error) {
	var rides []*ride
	t0 := time.Now()
	for len(rides) < min || time.Since(t0).Seconds() < seconds {
		var cal *calibrator
		if calibrate {
			cal = newCalibrator()
		}
		r, err := w.ride(tr, cal)
		if err != nil {
			return nil, err
		}
		rides = append(rides, r)
	}
	return rides, nil
}

// measureLayers spends a third of the time on untraced rides, the rest
// on traced rides, then runs the layer probes.
func measureLayers(name string, w workload, seed int64, seconds float64) (*report, []*ride, error) {
	plain, err := rideFor(w, nil, false, seconds/3, 1)
	if err != nil {
		return nil, nil, err
	}
	var ratios []float64
	for _, r := range plain {
		ratios = append(ratios, r.wallS/r.simS)
	}
	tr := newTracer()
	traced, err := rideFor(w, tr, false, seconds*2/3, 1)
	if err != nil {
		return nil, nil, err
	}
	probes, err := runProbes(seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := layerMetrics(traced, median(ratios), probes, tr)
	if err != nil {
		return nil, nil, err
	}
	// One file per workload, overwritten by each traced run.
	path := filepath.Join(".bench_build", "traces", name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, writeSpans(tr), 0o644); err != nil {
		return nil, nil, err
	}
	fmt.Printf("rides: %d untraced, %d traced; spans: %d, written to %s\n", len(plain), len(traced), len(tr.spans), path)
	return m, append(plain, traced...), nil
}

// checkRides compares every flow of every ride with the reference (a
// NaN reference flow is compared with the first ride instead). A flow
// fails when its client ended unowned or its goodput differs in any
// bit; the first failure is printed, and so is the telemetry
// comparison where the reference has one.
func checkRides(rides []*ride, ref reference) (attempted, failed int) {
	printed := false
	telDiff, telFirst := 0, ""
	for ri, r := range rides {
		if ref.telemetry != nil {
			if d := ref.telemetry(r); d != "" {
				if telDiff == 0 {
					telFirst = fmt.Sprintf("ride %d: %s", ri, d)
				}
				telDiff++
			}
		}
		for i, v := range r.flows {
			attempted++
			want := ref.flows[i]
			if math.IsNaN(want) {
				want = rides[0].flows[i]
			}
			bad := ""
			switch {
			case r.unowned[i]:
				bad = "client ended unowned"
			case math.Float64bits(v) != math.Float64bits(want):
				bad = fmt.Sprintf("goodput %v Mbit/s, reference %v", v, want)
			}
			if bad != "" {
				failed++
				if !printed {
					fmt.Printf("FAIL: ride %d flow %d: %s\n", ri, i, bad)
					printed = true
				}
			}
		}
	}
	if ref.telemetry != nil {
		fmt.Printf("telemetry: %d of %d rides differ from the reference ride's telemetry\n", telDiff, len(rides))
		if telDiff > 0 {
			fmt.Printf("telemetry: first difference, %s\n", telFirst)
		}
	}
	return attempted, failed
}

// printHost records where and on what the numbers were taken.
func printHost(name string, seed int64, inputs string) {
	host := map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"workload":      name,
		"seed":          seed,
		"inputs_digest": inputs,
	}
	b, _ := json.Marshal(host) // a map of plain values always marshals
	fmt.Printf("host: %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git revision when the working directory is
// the root of a git work tree, else "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod, outside
// hidden directories: it identifies the code measured even where there
// is no git revision to read.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
