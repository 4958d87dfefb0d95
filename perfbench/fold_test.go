package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes a CPU profile whose functions, locations and
// samples are given innermost frame first. Location 3 inlines rf into
// core, the way the compiler records an inlined call.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "math.Sin", "wgtt/internal/rf.(*Fader).Gain", "wgtt/internal/core.(*netChannel).SubcarrierSNRs",
		"runtime.gcBgMarkWorker", "wgtt.RunScaleCell", "wgtt/internal/sim.(*Loop).Run", "main.main", "samples", "cpu"}
	var prof pb
	for _, typ := range [][2]uint64{{8, 0}, {9, 0}} { // sample_type
		var vt pb
		vt.varint(1, typ[0])
		prof.bytes(1, vt.b)
	}
	samples := []struct {
		locs []uint64
		ns   uint64
	}{
		{[]uint64{1, 2}, 10}, // math.Sin <- rf: rf
		{[]uint64{3}, 20},    // rf inlined into core: rf
		{[]uint64{4}, 30},    // GC worker, no wgtt frame: runtime
		{[]uint64{6, 5}, 40}, // sim <- facade: sim
		{[]uint64{7, 5}, 50}, // main <- facade: facade
	}
	for _, s := range samples {
		var sp pb
		sp.packed(1, s.locs...)
		sp.packed(2, 1, s.ns)
		prof.bytes(2, sp.b)
	}
	locs := map[uint64][]uint64{1: {1}, 2: {2}, 3: {2, 3}, 4: {4}, 5: {5}, 6: {6}, 7: {7}}
	for id := uint64(1); id <= 7; id++ {
		var lp pb
		lp.varint(1, id)
		for _, fn := range locs[id] {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			lp.bytes(4, line.b)
		}
		prof.bytes(4, lp.b)
	}
	for id := uint64(1); id <= 7; id++ {
		var fp pb
		fp.varint(1, id)
		fp.varint(2, id) // function id i is named by string i
		prof.bytes(5, fp.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldChargesInnermostWgttFrame(t *testing.T) {
	stacks, values, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	wantStack := []string{"wgtt/internal/rf.(*Fader).Gain", "wgtt/internal/core.(*netChannel).SubcarrierSNRs"}
	if !reflect.DeepEqual(stacks[1], wantStack) {
		t.Errorf("inlined location expands to %q, want %q", stacks[1], wantStack)
	}
	got := foldStacks(stacks, values)
	want := map[string]int64{"rf": 30, "runtime": 30, "sim": 40, "facade": 50}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"wgtt/internal/mac.(*Medium).deliverAll":    "mac",
		"wgtt/internal/runner.Map[...].func1":       "runner",
		"wgtt/internal/csi.EffectiveSNRdB":          "csi",
		"wgtt.BuildScenarioRun":                     "facade",
		"wgttx.Something":                           "",
		"main.(*splitRide).ride":                    "",
		"runtime.mallocgc":                          "",
		"wgtt/internal/telemetry.(*Registry).Scope": "telemetry",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldRealProfileWithoutWgttFrames(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := 0; i < 30_000_000; i++ {
		x += float64(i % 7)
	}
	folded, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	_ = x
	for l := range folded {
		if l != "runtime" {
			t.Errorf("a profile of benchmark code charged layer %q", l)
		}
	}
}
