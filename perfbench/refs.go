package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// goldenFig13 are the repository's pinned Fig 13 values at 15 mph for
// seeds 1–3, in the order WGTT TCP, WGTT UDP, 802.11r TCP, 802.11r UDP.
var goldenFig13 = map[int64][4]float64{
	1: {15.012046515093783, 19.45795295118249, 4.140686838514366, 4.51631235833483},
	2: {12.811631984380487, 20.463419614238457, 4.249307811023623, 7.88448055666783},
	3: {13.823179770809068, 20.787346114863627, 3.712152094815453, 4.135909955976324},
}

// fig13GoldenFirst is the index of the first 15 mph ride among one
// figure seed's 20 rides, in fig13Speeds order.
const fig13GoldenFirst = 2 * 4

// digestTable records per-flow goodputs that rides must reproduce bit
// for bit, as space-separated shortest round-trip decimals: dense_cell
// entries are keyed by workload seed, paper_fig13 entries by figure
// seed. Regenerate entries with -record.
//
//go:embed digests.json
var digestJSON []byte

const digestFile = "perfbench/digests.json"

type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	t := digestTable{}
	if err := json.Unmarshal(digestJSON, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return t, nil
}

// lookup returns the entry for (workload, seed), or nil when there is
// none.
func (t digestTable) lookup(workload string, seed int64) ([]float64, error) {
	rec, ok := t[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	var out []float64
	for i, f := range strings.Fields(rec) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("%s %s seed %d flow %d: %w", digestFile, workload, seed, i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func (t digestTable) set(workload string, seed int64, flows []float64) {
	vs := make([]string, len(flows))
	for i, v := range flows {
		vs[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	if t[workload] == nil {
		t[workload] = map[string]string{}
	}
	t[workload][strconv.FormatInt(seed, 10)] = strings.Join(vs, " ")
}

// write rewrites the table file relative to the checkout root.
func (t digestTable) write() error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}

// recorder is a workload whose references live in the digest table.
type recorder interface {
	record(t digestTable, flows []float64)
}

// reference is what a workload's rides are checked against.
type reference struct {
	flows  []float64 // NaN: no reference for this flow beyond ride agreement
	source string
	// telemetry, when set, compares a ride's telemetry with the
	// reference ride's and returns the first difference ("" when they
	// match). Differences are reported beside the flow check, not
	// counted as failed flows: flows are what failed_ratio counts.
	telemetry func(*ride) string
}

// tableReference looks up a digest-table entry of n flows; a missing
// entry leaves every flow to ride agreement.
func tableReference(workload string, seed int64, n int) (reference, error) {
	ref := reference{flows: make([]float64, n), source: "agreement between rides (no recorded digest for this seed)"}
	for i := range ref.flows {
		ref.flows[i] = math.NaN()
	}
	table, err := loadDigests()
	if err != nil {
		return reference{}, err
	}
	rec, err := table.lookup(workload, seed)
	if err != nil || rec == nil {
		return ref, err
	}
	if len(rec) != n {
		return reference{}, fmt.Errorf("%s %s seed %d records %d flows, the workload has %d", digestFile, workload, seed, len(rec), n)
	}
	copy(ref.flows, rec)
	ref.source = "recorded digest " + digestFile
	return ref, nil
}
