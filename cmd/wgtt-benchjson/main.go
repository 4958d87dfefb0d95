// Command wgtt-benchjson maintains the repo's benchmark baselines.
//
// Default mode converts `go test -bench` output on stdin into JSON on
// stdout, for committing benchmark baselines:
//
//	go test -bench=. -benchtime=1x ./... | go run ./cmd/wgtt-benchjson > BENCH_baseline.json
//
// Gate mode re-reads such a baseline and fails when the bench output on
// stdin regresses its allocs/op or bytes/op budget by more than 10%:
//
//	go test -bench=... -benchmem . | go run ./cmd/wgtt-benchjson -gate BENCH_baseline.json
//
// Scale mode rides the city-scale grid (segments × clients over one
// shared medium) and emits — or, with -compare, checks — BENCH_scale.json:
//
//	go run ./cmd/wgtt-benchjson -scale > BENCH_scale.json
//	go run ./cmd/wgtt-benchjson -scale -compare BENCH_scale.json -segments 1,8 -clients 2,64
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"wgtt"
	"wgtt/internal/stats"
)

// mallocsSlack is the cross-run tolerance on a scale cell's Mallocs
// count (map growth and GC internals wobble; the datapath does not).
const mallocsSlack = 1.30

func main() {
	var (
		scale    = flag.Bool("scale", false, "run the scale grid instead of parsing bench output")
		compare  = flag.String("compare", "", "with -scale: compare against this BENCH_scale.json instead of emitting")
		gate     = flag.String("gate", "", "gate stdin bench output against this baseline's allocs/op and bytes/op budgets")
		seed     = flag.Int64("seed", 1, "scale grid seed")
		segments = flag.String("segments", "1,8,24", "scale grid segment counts")
		clients  = flag.String("clients", "2,64,1024", "scale grid client counts")
		dur      = flag.Duration("dur", 2*time.Second, "simulated duration per scale cell")
	)
	flag.Parse()

	switch {
	case *scale:
		runScale(*seed, intList(*segments), intList(*clients), *dur, *compare)
	case *gate != "":
		runGate(*gate)
	default:
		results, err := stats.ParseBench(os.Stdin)
		if err != nil {
			fatal("%v", err)
		}
		if len(results) == 0 {
			fatal("no benchmark lines on stdin")
		}
		if err := stats.WriteBenchJSON(os.Stdout, results); err != nil {
			fatal("%v", err)
		}
	}
}

func runScale(seed int64, segs, clis []int, dur time.Duration, compare string) {
	cells := wgtt.RunScaleGrid(seed, segs, clis, wgtt.Duration(dur))
	if compare == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cells); err != nil {
			fatal("%v", err)
		}
		return
	}
	data, err := os.ReadFile(compare)
	if err != nil {
		fatal("%v", err)
	}
	var base []wgtt.ScaleCell
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("bad %s: %v", compare, err)
	}
	failed := false
	for _, c := range cells {
		b, ok := findCell(base, c)
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %dx%d: no matching cell in %s\n",
				c.Segments, c.Clients, compare)
			failed = true
			continue
		}
		// Mbps is deterministic for a seed: any drift is a real
		// behaviour change, not noise.
		if math.Abs(c.Mbps-b.Mbps) > 1e-6*math.Max(1, math.Abs(b.Mbps)) {
			fmt.Fprintf(os.Stderr, "FAIL %dx%d: Mbps %.9f != baseline %.9f\n",
				c.Segments, c.Clients, c.Mbps, b.Mbps)
			failed = true
		}
		if float64(c.Mallocs) > float64(b.Mallocs)*mallocsSlack {
			fmt.Fprintf(os.Stderr, "FAIL %dx%d: Mallocs %d > baseline %d +%d%%\n",
				c.Segments, c.Clients, c.Mallocs, b.Mallocs, int(mallocsSlack*100-100))
			failed = true
		}
		fmt.Fprintf(os.Stderr, "ok %dx%d: %.3f Mbps, %d mallocs (baseline %d), %s wall\n",
			c.Segments, c.Clients, c.Mbps, c.Mallocs, b.Mallocs,
			time.Duration(c.WallNs))
	}
	if failed {
		os.Exit(1)
	}
}

func findCell(cells []wgtt.ScaleCell, want wgtt.ScaleCell) (wgtt.ScaleCell, bool) {
	for _, c := range cells {
		if c.Segments == want.Segments && c.Clients == want.Clients &&
			c.SimSeconds == want.SimSeconds {
			return c, true
		}
	}
	return wgtt.ScaleCell{}, false
}

func runGate(baselinePath string) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal("%v", err)
	}
	var base []stats.BenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("bad %s: %v", baselinePath, err)
	}
	results, err := stats.ParseBench(os.Stdin)
	if err != nil {
		fatal("%v", err)
	}
	if len(results) == 0 {
		fatal("no benchmark lines on stdin")
	}
	report, gated, ok := stats.Gate(base, results)
	for _, line := range report {
		fmt.Fprintln(os.Stderr, line)
	}
	if gated == 0 {
		fatal("no stdin benchmark matched a baseline allocs/op or bytes/op budget")
	}
	if !ok {
		os.Exit(1)
	}
}

func intList(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fatal("bad count %q", f)
		}
		out = append(out, v)
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wgtt-benchjson: "+format+"\n", args...)
	os.Exit(1)
}
