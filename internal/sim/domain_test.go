package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// ringHarness builds nDom domains in a bidirectional ring. Each domain runs
// a self-rescheduling local event that mixes its RNG and, every few firings,
// posts a value to a neighbour with a randomized (but >= minDelay) arrival
// offset. Every action appends to a per-domain log; concatenating the logs
// gives the ride's signature.
func ringSignature(t *testing.T, seed int64, nDom int) []string {
	t.Helper()
	const lookahead = 200 * Microsecond
	c := NewCoordinator(lookahead)
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

// TestCoordinatorStressRace exercises many domains with randomized mailbox
// delays under the race detector (scripts/ci.sh runs this package with
// -race). The workload itself is the ring harness at a larger scale.
func TestCoordinatorStressRace(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		if sig := ringSignature(t, seed, 9); len(sig) == 0 {
			t.Fatalf("seed %d: empty signature", seed)
		}
	}
}

func TestMailboxPostBelowMinDelayPanics(t *testing.T) {
	c := NewCoordinator(200 * Microsecond)
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
	c := NewCoordinator(200 * Microsecond)
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
	c := NewCoordinator(200 * Microsecond)
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
	c := NewCoordinator(200 * Microsecond)
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
	c := NewCoordinator(200 * Microsecond)
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

// kindTestSparse is the sparse harness's typed envelope: one message
// hop, as data, so the harness can run partitioned.
const kindTestSparse EnvelopeKind = 1002

type sparseMsg struct {
	Val, Hops, From int
}

func init() {
	RegisterEnvelope(kindTestSparse, EnvelopeCodec{
		Name: "test-sparse",
		Encode: func(p any, b []byte) []byte {
			m := p.(*sparseMsg)
			for _, v := range []int{m.Val, m.Hops, m.From} {
				b = binary.BigEndian.AppendUint64(b, uint64(v))
			}
			return b
		},
		Decode: func(b []byte) (any, error) {
			if len(b) != 24 {
				return nil, errors.New("test-sparse: bad length")
			}
			v := func(i int) int { return int(int64(binary.BigEndian.Uint64(b[8*i:]))) }
			return &sparseMsg{Val: v(0), Hops: v(1), From: v(2)}, nil
		},
	})
}

// sparseGraph is a random mailbox graph on which activity is sparse,
// the corridor's shape: two source domains fire at random gaps (from a
// quarter round to many rounds, so idle fast-forwards happen too), now
// and then posting to a random out-neighbour, and every delivery may be
// forwarded a few more hops. All other domains sit idle until a message
// reaches them. Every action appends to a per-domain log.
type sparseGraph struct {
	c    *Coordinator
	doms []*Domain
	logs [][]string
}

const sparseLookahead = 200 * Microsecond

func newSparseGraph(seed int64) *sparseGraph {
	const nDom = 16
	g := &sparseGraph{
		c:    NewCoordinator(sparseLookahead),
		doms: make([]*Domain, nDom),
		logs: make([][]string, nDom),
	}
	rng := NewRNG(seed)
	for i := range g.doms {
		g.doms[i] = g.c.NewDomain(fmt.Sprintf("d%d", i))
	}
	type edge struct {
		to int
		mb *Mailbox
	}
	out := make([][]edge, nDom)
	// send posts a message with hops forwards left from domain i to a
	// random out-neighbour.
	send := func(i, hops, val int, r *RNG) {
		if len(out[i]) == 0 {
			return
		}
		e := out[i][r.Intn(len(out[i]))]
		at := g.doms[i].Loop.Now().Add(e.mb.minDelay + Duration(r.Intn(400))*Microsecond)
		e.mb.Post(at, Envelope{Kind: kindTestSparse, Payload: &sparseMsg{Val: val, Hops: hops, From: i}})
	}
	gr := rng.Fork("graph")
	for i := range g.doms {
		for j := range g.doms {
			if i == j || gr.Intn(4) != 0 {
				continue
			}
			mb := g.c.Connect(g.doms[i], g.doms[j], sparseLookahead+Duration(gr.Intn(4))*50*Microsecond)
			out[i] = append(out[i], edge{j, mb})
			// The receiver logs the message and may pass it on.
			dst := j
			mb.OnReceive(kindTestSparse, func(p any) {
				m := p.(*sparseMsg)
				g.logs[dst] = append(g.logs[dst], fmt.Sprintf("d%d recv %d hops %d from d%d @%v",
					dst, m.Val, m.Hops, m.From, g.doms[dst].Loop.Now()))
				if m.Hops > 0 && m.Val%3 != 0 {
					// Seeded from the message alone: domains share no stream.
					dr := NewRNG(seed ^ int64(m.Val)<<8 ^ int64(dst))
					hops, val := m.Hops-1, m.Val*7+dst
					g.doms[dst].Loop.After(Duration(dr.Intn(300))*Microsecond, func() {
						send(dst, hops, val, dr)
					})
				}
			})
		}
	}
	for _, src := range []int{0, nDom / 2} {
		src := src
		r := rng.Fork(fmt.Sprintf("src%d", src))
		l := g.doms[src].Loop
		fires := 0
		var tick func()
		tick = func() {
			fires++
			g.logs[src] = append(g.logs[src], fmt.Sprintf("d%d tick%d @%v", src, fires, l.Now()))
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
	return g
}

// sparseStep is one call boundary of a sparse ride; single marks a call
// that should advance exactly one round.
type sparseStep struct {
	until  Time
	single bool
}

// sparseSteps is the seeded mix of single-round and multi-round calls a
// sparse ride advances in.
func sparseSteps(seed int64) []sparseStep {
	const horizon = Time(200 * Millisecond)
	steps := NewRNG(seed).Fork("steps")
	var out []sparseStep
	for now := Time(0); now < horizon; {
		st := sparseStep{until: now.Add(sparseLookahead), single: steps.Intn(3) != 0}
		if !st.single {
			st.until = now.Add(Duration(1+steps.Intn(25)) * sparseLookahead)
		}
		if st.until > horizon {
			st.until = horizon
		}
		out = append(out, st)
		now = st.until
	}
	return out
}

// sparseRun is the outcome of one sparse ride.
type sparseRun struct {
	sig []string
	// rounds with exactly one / several domains firing events, among
	// the calls that advanced exactly one round (whole-graph rides).
	oneActive, multiActive int
}

// sparseWhole rides a sparse graph with Run, checking after each call
// that every domain's clock equals the coordinator's.
func sparseWhole(t *testing.T, seed int64) sparseRun {
	t.Helper()
	g := newSparseGraph(seed)
	var res sparseRun
	executed := make([]int64, len(g.doms))
	for _, st := range sparseSteps(seed) {
		rounds := g.c.Rounds()
		for i, d := range g.doms {
			executed[i] = d.Loop.Executed()
		}
		g.c.Run(st.until)
		for _, d := range g.doms {
			if d.Loop.Now() != g.c.Now() {
				t.Fatalf("after Run(%v): domain %s clock %v, coordinator %v",
					st.until, d.Name(), d.Loop.Now(), g.c.Now())
			}
		}
		if st.single && g.c.Rounds()-rounds == 1 {
			fired := 0
			for i, d := range g.doms {
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
	for i := range g.logs {
		res.sig = append(res.sig, g.logs[i]...)
	}
	return res
}

// sparsePartitioned rides SPMD replicas of the sparse graph with
// RunPartitioned across two processes, the first owning the even
// domains, on the same call boundaries, and returns the signature
// stitched from each domain's owner. After each call every owned clock
// must equal the coordinator's.
func sparsePartitioned(t *testing.T, seed int64) []string {
	t.Helper()
	const nProc = 2
	graphs := make([]*sparseGraph, nProc)
	for p := range graphs {
		graphs[p] = newSparseGraph(seed)
	}
	clockErr := make([]string, nProc)
	runProcs(t, nProc, func(p int, bus PeerBus) error {
		g := graphs[p]
		owned := func(d *Domain) bool { return d.id%nProc == p }
		for _, st := range sparseSteps(seed) {
			if err := g.c.RunPartitioned(st.until, owned, bus); err != nil {
				return err
			}
			for _, d := range g.doms {
				if owned(d) && d.Loop.Now() != g.c.Now() && clockErr[p] == "" {
					clockErr[p] = fmt.Sprintf("after RunPartitioned(%v): domain %s clock %v, coordinator %v",
						st.until, d.Name(), d.Loop.Now(), g.c.Now())
				}
			}
		}
		return nil
	})
	for p, msg := range clockErr {
		if msg != "" {
			t.Fatalf("proc %d: %s", p, msg)
		}
	}
	var sig []string
	for i := range graphs[0].logs {
		sig = append(sig, graphs[i%nProc].logs[i]...)
	}
	return sig
}

// TestCoordinatorSparseParity pins the round loop's skip-idle path on
// graphs where most domains are idle in most rounds and many rounds have
// a single active domain: Run and RunPartitioned over an in-memory
// two-process bus, sliced at the same seeded call boundaries, must
// produce the same per-domain event logs entry for entry, and every
// clock must sit on the coordinator's after each call.
func TestCoordinatorSparseParity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		whole := sparseWhole(t, seed)
		if whole.oneActive == 0 || whole.multiActive == 0 {
			t.Fatalf("seed %d: harness gave %d single-active and %d multi-active rounds; want both",
				seed, whole.oneActive, whole.multiActive)
		}
		compareSig(t, seed, "2-proc", whole.sig, sparsePartitioned(t, seed))
	}
}

// TestWaitStatsSkippedDomains pins the barrier-wait semantics under Run
// and under RunPartitioned: a domain records a round (and a wait) only
// in rounds where it was active, and a domain that is never active —
// or that another process executes — records nothing.
func TestWaitStatsSkippedDomains(t *testing.T) {
	const lookahead = 200 * Microsecond
	build := func() *Coordinator {
		c := NewCoordinator(lookahead)
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
		return c
	}
	want := map[string]int64{"a": 10, "b": 2, "idle": 0}
	check := func(label string, c *Coordinator, owned func(name string) bool) {
		for _, ws := range c.WaitStats() {
			var inBuckets int64
			for _, n := range ws.Buckets {
				inBuckets += n
			}
			w := want[ws.Domain]
			if !owned(ws.Domain) {
				w = 0
			}
			if ws.Rounds != w || inBuckets != ws.Rounds {
				t.Errorf("%s: domain %s recorded %d rounds (%d in buckets), want %d",
					label, ws.Domain, ws.Rounds, inBuckets, w)
			}
			if ws.Rounds == 0 && (ws.SumNs != 0 || ws.MaxNs != 0) {
				t.Errorf("%s: domain %s recorded waits %d/%d ns in no round",
					label, ws.Domain, ws.SumNs, ws.MaxNs)
			}
		}
		if c.Rounds() < 10 {
			t.Errorf("%s: %d coordinator rounds, want at least 10", label, c.Rounds())
		}
	}

	c := build()
	c.Run(Time(20 * lookahead))
	check("Run", c, func(string) bool { return true })

	// Process 0 executes a and idle, process 1 executes b.
	coords := []*Coordinator{build(), build()}
	ownedBy := func(p int) func(string) bool {
		return func(name string) bool { return (name == "b") == (p == 1) }
	}
	runProcs(t, len(coords), func(p int, bus PeerBus) error {
		owned := ownedBy(p)
		return coords[p].RunPartitioned(Time(20*lookahead),
			func(d *Domain) bool { return owned(d.Name()) }, bus)
	})
	for p, c := range coords {
		check(fmt.Sprintf("RunPartitioned proc %d", p), c, ownedBy(p))
	}
}

// roundBenchCoordinator builds a 25-domain coordinator chained
// by mailboxes both ways between neighbours, as on a corridor, where
// active domains (spread along the chain) each fire one
// self-rescheduling event per lookahead and the rest stay idle. The
// events do no work, so a round costs only the coordinator's overhead.
func roundBenchCoordinator(active int) *Coordinator {
	const nDom = 25
	const lookahead = 200 * Microsecond
	c := NewCoordinator(lookahead)
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
	c.Run(c.Now().Add(10 * lookahead))
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
			c.Run(c.Now().Add(Duration(b.N) * c.Lookahead()))
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
		if n := testing.AllocsPerRun(50, func() { c.Run(c.Now().Add(20 * c.Lookahead())) }); n != 0 {
			t.Errorf("%d active: %v allocs per 20-round Run", active, n)
		}
	}
}
