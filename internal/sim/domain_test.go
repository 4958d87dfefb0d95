package sim

import (
	"fmt"
	"testing"
)

// ringHarness builds nDom domains in a bidirectional ring. Each domain runs
// a self-rescheduling local event that mixes its RNG and, every few firings,
// posts a value to a neighbour with a randomized (but >= minDelay) arrival
// offset. Every action appends to a per-domain log; concatenating the logs
// gives a signature that must be independent of serial vs parallel rounds.
func ringSignature(t *testing.T, seed int64, nDom int, parallel bool) []string {
	t.Helper()
	const lookahead = 200 * Microsecond
	c := NewCoordinator(lookahead, parallel)
	doms := make([]*Domain, nDom)
	logs := make([][]string, nDom)
	for i := range doms {
		doms[i] = c.NewDomain(fmt.Sprintf("d%d", i))
	}
	boxes := make(map[[2]int]*Mailbox)
	for i := range doms {
		next := (i + 1) % nDom
		// Randomize per-edge minimum delays to model heterogeneous trunks;
		// all must stay >= lookahead.
		extraF := NewRNG(seed).Fork(fmt.Sprintf("delay%d", i)).Intn(5)
		extraR := NewRNG(seed).Fork(fmt.Sprintf("delayr%d", i)).Intn(5)
		boxes[[2]int{i, next}] = c.Connect(doms[i], doms[next],
			lookahead+Duration(extraF)*50*Microsecond)
		boxes[[2]int{next, i}] = c.Connect(doms[next], doms[i],
			lookahead+Duration(extraR)*50*Microsecond)
	}
	for i := range doms {
		i := i
		d := doms[i]
		rng := NewRNG(seed).Fork(fmt.Sprintf("dom%d", i))
		var tick func()
		fires := 0
		tick = func() {
			fires++
			now := d.Loop.Now()
			logs[i] = append(logs[i], fmt.Sprintf("d%d tick%d @%v r%d",
				i, fires, now, rng.Intn(1000)))
			if fires%3 == 0 {
				dst := (i + 1) % nDom
				if fires%2 == 0 {
					dst = (i + nDom - 1) % nDom
				}
				mb := boxes[[2]int{i, dst}]
				at := now.Add(mb.minDelay + Duration(rng.Intn(300))*Microsecond)
				val := fires * (i + 1)
				mb.PostFunc(at, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("d%d recv %d from d%d @%v",
						dst, val, i, doms[dst].Loop.Now()))
				})
			}
			if fires < 40 {
				d.Loop.After(Duration(50+rng.Intn(200))*Microsecond, tick)
			}
		}
		d.Loop.After(Duration(10+rng.Intn(50))*Microsecond, tick)
	}
	c.Run(Time(50 * Millisecond))
	var sig []string
	for i := range logs {
		sig = append(sig, logs[i]...)
	}
	if got := c.Now(); got != Time(50*Millisecond) {
		t.Fatalf("coordinator stopped at %v, want %v", got, Time(50*Millisecond))
	}
	return sig
}

// TestCoordinatorParallelMatchesSerial is the core conservative-sync
// guarantee: parallel rounds are bit-identical to serial rounds.
func TestCoordinatorParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		serial := ringSignature(t, seed, 5, false)
		par := ringSignature(t, seed, 5, true)
		if len(serial) != len(par) {
			t.Fatalf("seed %d: log length %d (serial) != %d (parallel)",
				seed, len(serial), len(par))
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("seed %d: first divergence at entry %d:\n serial: %s\n parallel: %s",
					seed, i, serial[i], par[i])
			}
		}
		if len(serial) == 0 {
			t.Fatalf("seed %d: empty signature — harness produced no events", seed)
		}
	}
}

// TestCoordinatorStressRace exercises many domains with randomized mailbox
// delays under the race detector (scripts/ci.sh runs this package with
// -race). The workload itself is the ring harness at a larger scale.
func TestCoordinatorStressRace(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		if sig := ringSignature(t, seed, 9, true); len(sig) == 0 {
			t.Fatalf("seed %d: empty signature", seed)
		}
	}
}

func TestMailboxPostBelowMinDelayPanics(t *testing.T) {
	c := NewCoordinator(200*Microsecond, false)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	mb := c.Connect(a, b, 200*Microsecond)
	a.Loop.After(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post below min delay did not panic")
			}
		}()
		mb.PostFunc(a.Loop.Now().Add(100*Microsecond), func() {})
	})
	c.Run(Time(2 * Millisecond))
}

// TestMailboxPostBelowMinDelayPanicsBothDirections pins the min-delay
// validation on BOTH mailboxes of a Connect pair and on both entry
// points (typed Post and the deprecated PostFunc shim): the check lives
// in one shared Mailbox.checkDelay, so neither direction nor API can
// drift to unvalidated posts.
func TestMailboxPostBelowMinDelayPanicsBothDirections(t *testing.T) {
	c := NewCoordinator(200*Microsecond, false)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	fwd := c.Connect(a, b, 200*Microsecond)
	rev := c.Connect(b, a, 200*Microsecond)
	mustPanic := func(name string, post func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s below min delay did not panic", name)
			}
		}()
		post()
	}
	a.Loop.After(Millisecond, func() {
		at := a.Loop.Now().Add(100 * Microsecond)
		mustPanic("fwd Post", func() { fwd.Post(at, Envelope{Kind: KindFunc, Payload: func() {}}) })
		mustPanic("fwd PostFunc", func() { fwd.PostFunc(at, func() {}) })
	})
	b.Loop.After(Millisecond, func() {
		at := b.Loop.Now().Add(100 * Microsecond)
		mustPanic("rev Post", func() { rev.Post(at, Envelope{Kind: KindFunc, Payload: func() {}}) })
		mustPanic("rev PostFunc", func() { rev.PostFunc(at, func() {}) })
	})
	c.Run(Time(2 * Millisecond))
}

func TestConnectBelowLookaheadPanics(t *testing.T) {
	c := NewCoordinator(200*Microsecond, false)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	defer func() {
		if recover() == nil {
			t.Error("Connect below lookahead did not panic")
		}
	}()
	c.Connect(a, b, 100*Microsecond)
}

// TestCoordinatorIdleFastForward checks that a sparse schedule does not
// cost one round per lookahead interval: a single event 10s out must fire,
// and all clocks must land exactly on the horizon.
func TestCoordinatorIdleFastForward(t *testing.T) {
	c := NewCoordinator(200*Microsecond, false)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	fired := false
	a.Loop.At(Time(10*Second), func() { fired = true })
	c.Run(Time(11 * Second))
	if !fired {
		t.Fatal("distant event did not fire")
	}
	for _, d := range []*Domain{a, b} {
		if d.Loop.Now() != Time(11*Second) {
			t.Fatalf("domain %s clock %v, want %v", d.Name(), d.Loop.Now(), Time(11*Second))
		}
	}
}

// TestCoordinatorConstructionPosts checks that thunks posted before Run
// (sender clocks at zero) are delivered, including ones landing inside the
// very first round.
func TestCoordinatorConstructionPosts(t *testing.T) {
	c := NewCoordinator(200*Microsecond, false)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	mb := c.Connect(a, b, 200*Microsecond)
	var got []Time
	mb.PostFunc(Time(200*Microsecond), func() { got = append(got, b.Loop.Now()) })
	mb.PostFunc(Time(5*Millisecond), func() { got = append(got, b.Loop.Now()) })
	c.Run(Time(10 * Millisecond))
	if len(got) != 2 || got[0] != Time(200*Microsecond) || got[1] != Time(5*Millisecond) {
		t.Fatalf("construction posts delivered at %v", got)
	}
}

// sparseRun is the outcome of one sparseSignature ride.
type sparseRun struct {
	sig []string
	// rounds with exactly one / several domains firing events, among
	// the Run calls that advanced exactly one round.
	oneActive, multiActive int
}

// sparseSignature rides a random mailbox graph on which activity is
// sparse, the corridor's shape: two source domains fire at random gaps
// (from a quarter round to many rounds, so idle fast-forwards happen
// too), now and then posting to a random out-neighbour, and every
// delivery may be forwarded a few more hops. All other domains sit idle
// until a message reaches them. The ride advances in a seeded mix of
// single-round and multi-round Run calls and checks after each that
// every domain's clock equals the coordinator's.
func sparseSignature(t *testing.T, seed int64, parallel bool) sparseRun {
	t.Helper()
	const nDom = 16
	const lookahead = 200 * Microsecond
	const horizon = Time(200 * Millisecond)
	c := NewCoordinator(lookahead, parallel)
	rng := NewRNG(seed)
	doms := make([]*Domain, nDom)
	logs := make([][]string, nDom)
	for i := range doms {
		doms[i] = c.NewDomain(fmt.Sprintf("d%d", i))
	}
	type edge struct {
		to int
		mb *Mailbox
	}
	out := make([][]edge, nDom)
	g := rng.Fork("graph")
	for i := range doms {
		for j := range doms {
			if i != j && g.Intn(4) == 0 {
				mb := c.Connect(doms[i], doms[j], lookahead+Duration(g.Intn(4))*50*Microsecond)
				out[i] = append(out[i], edge{j, mb})
			}
		}
	}
	// send posts a message with hops forwards left from domain i to a
	// random out-neighbour; its receiver logs it and may pass it on.
	var send func(i, hops, val int, r *RNG)
	send = func(i, hops, val int, r *RNG) {
		if len(out[i]) == 0 {
			return
		}
		e := out[i][r.Intn(len(out[i]))]
		at := doms[i].Loop.Now().Add(e.mb.minDelay + Duration(r.Intn(400))*Microsecond)
		e.mb.PostFunc(at, func() {
			dst := e.to
			logs[dst] = append(logs[dst], fmt.Sprintf("d%d recv %d hops %d from d%d @%v",
				dst, val, hops, i, doms[dst].Loop.Now()))
			if hops > 0 && val%3 != 0 {
				// Seeded from the message alone: domains share no stream.
				dr := NewRNG(seed ^ int64(val)<<8 ^ int64(dst))
				doms[dst].Loop.After(Duration(dr.Intn(300))*Microsecond, func() {
					send(dst, hops-1, val*7+dst, dr)
				})
			}
		})
	}
	for _, src := range []int{0, nDom / 2} {
		src := src
		r := rng.Fork(fmt.Sprintf("src%d", src))
		l := doms[src].Loop
		fires := 0
		var tick func()
		tick = func() {
			fires++
			logs[src] = append(logs[src], fmt.Sprintf("d%d tick%d @%v", src, fires, l.Now()))
			if r.Intn(2) == 0 {
				send(src, 3, fires*100+src, r)
			}
			gap := Duration(50+r.Intn(400)) * Microsecond
			if r.Intn(8) == 0 {
				gap = Duration(2+r.Intn(20)) * Millisecond
			}
			l.After(gap, tick)
		}
		l.After(Duration(10+r.Intn(500))*Microsecond, tick)
	}

	var res sparseRun
	steps := rng.Fork("steps")
	executed := make([]int64, nDom)
	for c.Now() < horizon {
		until := c.Now().Add(lookahead)
		single := steps.Intn(3) != 0
		if !single {
			until = c.Now().Add(Duration(1+steps.Intn(25)) * lookahead)
		}
		if until > horizon {
			until = horizon
		}
		rounds := c.Rounds()
		for i, d := range doms {
			executed[i] = d.Loop.Executed()
		}
		c.Run(until)
		for _, d := range doms {
			if d.Loop.Now() != c.Now() {
				t.Fatalf("after Run(%v): domain %s clock %v, coordinator %v",
					until, d.Name(), d.Loop.Now(), c.Now())
			}
		}
		if single && c.Rounds()-rounds == 1 {
			fired := 0
			for i, d := range doms {
				if d.Loop.Executed() != executed[i] {
					fired++
				}
			}
			switch {
			case fired == 1:
				res.oneActive++
			case fired > 1:
				res.multiActive++
			}
		}
	}
	for i := range logs {
		res.sig = append(res.sig, logs[i]...)
	}
	return res
}

// TestCoordinatorSparseParity pins the round loop's skip-idle path on
// graphs where most domains are idle in most rounds and many rounds have
// a single active domain: the serial and parallel coordinators' (the
// latter collecting barrier waits) per-domain event logs must match
// entry for entry, and every clock must sit on the coordinator's after
// each Run call.
func TestCoordinatorSparseParity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		serial := sparseSignature(t, seed, false)
		par := sparseSignature(t, seed, true)
		if serial.oneActive == 0 || serial.multiActive == 0 {
			t.Fatalf("seed %d: harness gave %d single-active and %d multi-active rounds; want both",
				seed, serial.oneActive, serial.multiActive)
		}
		if len(serial.sig) != len(par.sig) {
			t.Fatalf("seed %d: log length %d (serial) != %d (parallel)",
				seed, len(serial.sig), len(par.sig))
		}
		for i := range serial.sig {
			if serial.sig[i] != par.sig[i] {
				t.Fatalf("seed %d: first divergence at entry %d:\n serial: %s\n parallel: %s",
					seed, i, serial.sig[i], par.sig[i])
			}
		}
	}
}

// TestWaitStatsSkippedDomains pins the barrier-wait semantics: a domain
// records a round (and a wait) only in rounds where it was active, a
// domain that is never active records nothing, and a serial coordinator
// records nothing at all.
func TestWaitStatsSkippedDomains(t *testing.T) {
	const lookahead = 200 * Microsecond
	for _, parallel := range []bool{false, true} {
		c := NewCoordinator(lookahead, parallel)
		a := c.NewDomain("a")
		b := c.NewDomain("b")
		c.NewDomain("idle")
		// a fires once in each of the first ten rounds, b in rounds 5
		// and 6 only.
		for k := 1; k <= 10; k++ {
			a.Loop.At(Time(Duration(k)*lookahead), func() {})
		}
		b.Loop.At(Time(5*lookahead), func() {})
		b.Loop.At(Time(6*lookahead), func() {})
		c.EnableWaitStats()
		c.Run(Time(20 * lookahead))
		want := map[string]int64{"a": 10, "b": 2, "idle": 0}
		if !parallel {
			want = map[string]int64{"a": 0, "b": 0, "idle": 0}
		}
		for _, ws := range c.WaitStats() {
			var inBuckets int64
			for _, n := range ws.Buckets {
				inBuckets += n
			}
			if ws.Rounds != want[ws.Domain] || inBuckets != ws.Rounds {
				t.Errorf("parallel=%v: domain %s recorded %d rounds (%d in buckets), want %d",
					parallel, ws.Domain, ws.Rounds, inBuckets, want[ws.Domain])
			}
			if ws.Rounds == 0 && (ws.SumNs != 0 || ws.MaxNs != 0) {
				t.Errorf("parallel=%v: domain %s recorded waits %d/%d ns in no round",
					parallel, ws.Domain, ws.SumNs, ws.MaxNs)
			}
		}
		if c.Rounds() < 10 {
			t.Errorf("parallel=%v: %d coordinator rounds, want at least 10", parallel, c.Rounds())
		}
	}
}

// roundBenchCoordinator builds a 25-domain parallel coordinator chained
// by mailboxes both ways between neighbours, as on a corridor, where
// active domains (spread along the chain) each fire one
// self-rescheduling event per lookahead and the rest stay idle. The
// events do no work, so a round costs only the coordinator's overhead.
func roundBenchCoordinator(active int) *Coordinator {
	const nDom = 25
	const lookahead = 200 * Microsecond
	c := NewCoordinator(lookahead, true)
	doms := make([]*Domain, nDom)
	for i := range doms {
		doms[i] = c.NewDomain(fmt.Sprintf("d%d", i))
	}
	for i := 1; i < nDom; i++ {
		c.Connect(doms[i-1], doms[i], lookahead)
		c.Connect(doms[i], doms[i-1], lookahead)
	}
	for k := 0; k < active; k++ {
		l := doms[k*nDom/active].Loop
		var tick func()
		tick = func() { l.After(lookahead, tick) }
		l.At(Time(lookahead), tick)
	}
	// Warm up: the first Run sizes the round state.
	c.RunFor(10 * lookahead)
	return c
}

// BenchmarkCoordinatorRound prices one coordinator round (ns/op) with 2
// and with all 25 domains active: picking the active domains, advancing
// the idle clocks, running the active ones and draining the mailboxes.
func BenchmarkCoordinatorRound(b *testing.B) {
	for _, active := range []int{2, 25} {
		b.Run(fmt.Sprintf("active=%d", active), func(b *testing.B) {
			c := roundBenchCoordinator(active)
			rounds := c.Rounds()
			b.ReportAllocs()
			b.ResetTimer()
			c.RunFor(Duration(b.N) * c.Lookahead())
			b.StopTimer()
			if got := c.Rounds() - rounds; got != int64(b.N) {
				b.Fatalf("%d rounds for %d ops", got, b.N)
			}
		})
	}
}

// TestCoordinatorRoundAllocs holds the round loop allocation-free.
func TestCoordinatorRoundAllocs(t *testing.T) {
	if ownerCheckEnabled {
		t.Skip("the simcheck owner guard allocates on every Loop.Run")
	}
	for _, active := range []int{2, 25} {
		c := roundBenchCoordinator(active)
		if n := testing.AllocsPerRun(50, func() { c.RunFor(20 * c.Lookahead()) }); n != 0 {
			t.Errorf("%d active: %v allocs per 20-round Run", active, n)
		}
	}
}
