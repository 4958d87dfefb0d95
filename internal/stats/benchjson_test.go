package stats

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: wgtt
cpu: AMD EPYC
BenchmarkMeanPerClientMbps
BenchmarkMeanPerClientMbps-4   	       3	 412345678 ns/op	        21.50 Mbps	  123456 B/op	    7890 allocs/op
BenchmarkEffectiveSNRdB       	 7345210	       158.8 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	wgtt	12.345s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(got), got)
	}
	r := got[0]
	if r.Name != "BenchmarkMeanPerClientMbps" || r.Procs != 4 || r.Runs != 3 {
		t.Errorf("first record header = %q/%d/%d", r.Name, r.Procs, r.Runs)
	}
	if r.NsPerOp != 412345678 || *r.BytesPerOp != 123456 || *r.AllocsPerOp != 7890 {
		t.Errorf("first record values = %+v", r)
	}
	if r.Metrics["Mbps"] != 21.50 {
		t.Errorf("custom metric Mbps = %v", r.Metrics["Mbps"])
	}
	r = got[1]
	if r.Name != "BenchmarkEffectiveSNRdB" || r.Procs != 1 {
		t.Errorf("second record header = %q/%d", r.Name, r.Procs)
	}
	if r.NsPerOp != 158.8 || r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Errorf("second record values = %+v", r)
	}
}

func TestWriteBenchJSONRoundTrip(t *testing.T) {
	in, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []BenchResult
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

// withMem is r carrying allocs/op and B/op readings.
func withMem(r BenchResult, allocs, bytes float64) BenchResult {
	r.AllocsPerOp, r.BytesPerOp = &allocs, &bytes
	return r
}

// TestGate pins the CI budget gate: allocs/op and bytes/op each fail
// past GateSlack over the baseline, independently, and results without
// a baseline entry or without -benchmem figures are not gated.
func TestGate(t *testing.T) {
	base := []BenchResult{
		withMem(BenchResult{Name: "BenchmarkA"}, 1000, 1<<20),
		withMem(BenchResult{Name: "BenchmarkB"}, 1000, 1<<20),
		withMem(BenchResult{Name: "BenchmarkC"}, 1000, 1<<20),
	}
	for _, tc := range []struct {
		name      string
		results   []BenchResult
		wantGated int
		wantOK    bool
	}{
		{"within budget", []BenchResult{withMem(BenchResult{Name: "BenchmarkA"}, 1099, 1.09*(1<<20))}, 2, true},
		{"allocs over", []BenchResult{withMem(BenchResult{Name: "BenchmarkA"}, 1101, 1<<20)}, 2, false},
		{"bytes over", []BenchResult{withMem(BenchResult{Name: "BenchmarkB"}, 900, 1.11*(1<<20))}, 2, false},
		{"no benchmem", []BenchResult{{Name: "BenchmarkC", NsPerOp: 5}}, 0, true},
		{"no baseline", []BenchResult{withMem(BenchResult{Name: "BenchmarkZ"}, 1e9, 1e12)}, 0, true},
	} {
		report, gated, ok := Gate(base, tc.results)
		if gated != tc.wantGated || ok != tc.wantOK {
			t.Errorf("%s: gated=%d ok=%v, want gated=%d ok=%v\n%s",
				tc.name, gated, ok, tc.wantGated, tc.wantOK, strings.Join(report, "\n"))
		}
		if len(report) != gated {
			t.Errorf("%s: %d report lines for %d gated metrics", tc.name, len(report), gated)
		}
	}
}

// TestGateZeroBudget pins that a zero budget is enforced: a baseline
// entry that records 0 allocs/op and 0 B/op — kept through the JSON
// round trip, not dropped as empty — fails any result above zero and
// passes a zero reading, while an entry without the fields gates
// nothing.
func TestGateZeroBudget(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, []BenchResult{
		withMem(BenchResult{Name: "BenchmarkZero"}, 0, 0),
		{Name: "BenchmarkAbsent", NsPerOp: 5},
	}); err != nil {
		t.Fatal(err)
	}
	var base []BenchResult
	if err := json.Unmarshal(buf.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		result    BenchResult
		wantGated int
		wantOK    bool
	}{
		{"zero reading", withMem(BenchResult{Name: "BenchmarkZero"}, 0, 0), 2, true},
		{"one alloc", withMem(BenchResult{Name: "BenchmarkZero"}, 1, 0), 2, false},
		{"bytes only", withMem(BenchResult{Name: "BenchmarkZero"}, 0, 8), 2, false},
		{"absent budget", withMem(BenchResult{Name: "BenchmarkAbsent"}, 1e6, 1e9), 0, true},
	} {
		report, gated, ok := Gate(base, []BenchResult{tc.result})
		if gated != tc.wantGated || ok != tc.wantOK {
			t.Errorf("%s: gated=%d ok=%v, want gated=%d ok=%v\n%s",
				tc.name, gated, ok, tc.wantGated, tc.wantOK, strings.Join(report, "\n"))
		}
	}
}
