package stats

// Benchmark-output parsing: `go test -bench` emits one line per
// benchmark; ParseBench turns those lines into structured records and
// WriteBenchJSON serializes them, so benchmark baselines (see
// BENCH_baseline.json at the repo root) can be diffed across commits.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// BenchResult is one parsed `go test -bench` result line.
type BenchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 if the line had none).
	Procs int `json:"procs"`
	// Runs is the iteration count (the b.N the line reports).
	Runs int64 `json:"runs"`
	// NsPerOp is wall-clock nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present (non-nil) when the benchmark
	// ran with -benchmem or b.ReportAllocs(); a present zero is a
	// reading, and in a baseline a zero budget, not an absence.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "Mbps").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ParseBench reads `go test -bench` output and returns one record per
// benchmark line, in input order. Non-benchmark lines (PASS, ok, goos,
// test logs) are ignored.
func ParseBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name N value unit [value unit]..."; a bare
		// "BenchmarkX" with no fields is a progress line, skip it.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		res := BenchResult{Procs: 1}
		res.Name = fields[0]
		if i := strings.LastIndex(res.Name, "-"); i > 0 {
			if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
				res.Name, res.Procs = res.Name[:i], p
			}
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %v", line, err)
		}
		res.Runs = runs
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value in %q: %v", line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = &v
			case "allocs/op":
				res.AllocsPerOp = &v
			case "MB/s":
				setMetric(&res, "MB/s", v)
			default:
				setMetric(&res, unit, v)
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func setMetric(r *BenchResult, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[unit] = v
}

// WriteBenchJSON writes the results as indented JSON.
func WriteBenchJSON(w io.Writer, results []BenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// GateSlack is how far a benchmark's allocs/op or bytes/op may drift
// above its pinned baseline budget before Gate fails it.
const GateSlack = 1.10

// Gate holds each result to the baseline entry of the same name:
// allocs/op and bytes/op may each exceed the baseline's by at most
// GateSlack, so a zero budget admits nothing above zero. A metric is
// gated only when both sides carry it (results run without -benchmem
// carry neither). Gate returns one report line per gated metric, how
// many metrics it gated, and whether all were within budget.
func Gate(baseline, results []BenchResult) (report []string, gated int, ok bool) {
	base := make(map[string]BenchResult, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	ok = true
	for _, r := range results {
		b, found := base[r.Name]
		if !found {
			continue
		}
		for _, m := range []struct {
			unit      string
			got, want *float64
		}{
			{"allocs/op", r.AllocsPerOp, b.AllocsPerOp},
			{"B/op", r.BytesPerOp, b.BytesPerOp},
		} {
			if m.got == nil || m.want == nil {
				continue
			}
			gated++
			got, want := *m.got, *m.want
			if got > want*GateSlack {
				ok = false
				report = append(report, fmt.Sprintf("FAIL %s: %.0f %s > budget %.0f +%.0f%%",
					r.Name, got, m.unit, want, (GateSlack-1)*100))
			} else {
				report = append(report, fmt.Sprintf("ok %s: %.0f %s (budget %.0f)",
					r.Name, got, m.unit, want))
			}
		}
	}
	return report, gated, ok
}
