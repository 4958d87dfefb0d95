package wgtt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/sim"
)

// pairBus is one end of an in-process two-process sim.PeerBus: each
// Exchange sends this process's round message and returns the peer's.
// A process that fails closes the shared abort channel so its peer
// unblocks instead of waiting forever.
type pairBus struct {
	out, in chan sim.RoundMsg
	abort   chan struct{}
	once    *sync.Once
}

func newPairBus() [2]*pairBus {
	ab, ba := make(chan sim.RoundMsg, 1), make(chan sim.RoundMsg, 1)
	abort, once := make(chan struct{}), &sync.Once{}
	return [2]*pairBus{
		{out: ab, in: ba, abort: abort, once: once},
		{out: ba, in: ab, abort: abort, once: once},
	}
}

func (b *pairBus) Exchange(m sim.RoundMsg) ([]sim.RoundMsg, error) {
	select {
	case b.out <- m:
	case <-b.abort:
		return nil, errors.New("peer aborted")
	}
	select {
	case pm := <-b.in:
		return []sim.RoundMsg{pm}, nil
	case <-b.abort:
		return nil, errors.New("peer aborted")
	}
}

func (b *pairBus) fail() { b.once.Do(func() { close(b.abort) }) }

// writeScenario writes scenario YAML to a file for BuildServeScenario
// and returns its path.
func writeScenario(t *testing.T, yaml string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.yaml")
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeWaitStatsRecord pins the barrier-wait statistics behind
// wgtt-serve's wgtt_coord_wait_* lines on a served two-segment slice:
// run in-process and run partitioned as segs,server over an in-memory
// bus, every domain that did work (seg0, where the client rides, and
// the server, which sources its downlink) reports rounds, and a domain
// another process executes reports none.
func TestServeWaitStatsRecord(t *testing.T) {
	const slice = 500 * Millisecond
	path := writeScenario(t, `name: two-segment
seed: 3
horizon: 2s
road:
  segments:
    - aps: 4
    - aps: 4
routes:
  - name: east
    mph: 25
clients:
  - route: east
`)
	build := func() *ServeRun {
		sr, err := BuildServeScenario(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sr.Net.Coord.EnableWaitStats()
		return sr
	}
	check := func(label string, sr *ServeRun, owned map[string]bool) {
		t.Helper()
		worked := map[string]bool{"seg0": true, "server": true}
		for _, ws := range sr.Net.Coord.WaitStats() {
			switch {
			case owned != nil && !owned[ws.Domain]:
				if ws.Rounds != 0 {
					t.Errorf("%s: unowned domain %s recorded %d rounds", label, ws.Domain, ws.Rounds)
				}
			case worked[ws.Domain] && ws.Rounds == 0:
				t.Errorf("%s: domain %s did work but recorded no rounds", label, ws.Domain)
			}
			if ws.Rounds > sr.Net.Coord.Rounds() {
				t.Errorf("%s: domain %s recorded %d rounds of the coordinator's %d",
					label, ws.Domain, ws.Rounds, sr.Net.Coord.Rounds())
			}
		}
	}

	whole := build()
	whole.Net.Run(slice)
	check("in-process", whole, nil)

	runs := [2]*ServeRun{build(), build()}
	part, err := core.ParsePartition("segs,server")
	if err != nil {
		t.Fatal(err)
	}
	owned, err := part.Resolve(runs[0].Net)
	if err != nil {
		t.Fatal(err)
	}
	buses := newPairBus()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := range runs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[p] = runs[p].Net.RunPartitioned(slice, owned[p], buses[p]); errs[p] != nil {
				buses[p].fail()
			}
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	check("proc 0 (segs)", runs[0], owned[0])
	check("proc 1 (server)", runs[1], owned[1])
}

// TestSameProcessRepeatRun rides a twelve-segment, four-client corridor
// (split_ride's shape in the benchmark) four times in one process,
// telemetry on, in domain mode: every ride must render the snapshot
// text of the first byte for byte, so no state leaks between networks
// built in the same process and nothing in a ride depends on map
// order. Map order is random per run, so a map-ordered loop does not
// show in every pair of rides; four rides caught a backhaul Broadcast
// that sends in map order in 13 of 16 runs.
func TestSameProcessRepeatRun(t *testing.T) {
	if testing.Short() {
		t.Skip("four 8 s corridor rides")
	}
	path := writeScenario(t, "name: repeat\nseed: 1\nhorizon: 8s\nroad:\n  segments:\n"+
		strings.Repeat("    - aps: 4\n", 12)+
		"routes:\n  - name: east\n    mph: 25\nclients:\n  - route: east\n    count: 4\n")
	ride := func() string {
		sr, err := BuildServeScenario(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Net.Coord == nil {
			t.Fatal("scenario served without segment domains")
		}
		sr.Net.Run(sr.Dur)
		return snapshotText(t, sr.Net.MetricsSnapshot())
	}
	first := ride()
	for i := 2; i <= 4; i++ {
		if got := ride(); got != first {
			t.Fatalf("ride %d's telemetry differs from the first\n%s",
				i, firstDiffLabeled("first", "repeat", first, got))
		}
	}
}
