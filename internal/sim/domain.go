package sim

import (
	"fmt"
	"time"
)

// This file implements conservative parallel discrete-event simulation over
// a set of Loops ("domains"). The model is the classic null-message-free
// synchronous variant: all cross-domain interactions carry a minimum latency
// of at least the coordinator's lookahead L, so virtual time can advance in
// rounds of width L with a barrier between rounds.
//
// Correctness argument. A round covers the half-open window (T, T+L]. While
// a domain executes its round, its clock satisfies now > T (events fire at
// their timestamps, which lie inside the window; a domain that merely
// advances its clock posts nothing). Every cross-domain message is sent via
// Mailbox.Post, which requires the arrival time to be at least the sender's
// now plus the mailbox delay, and the mailbox delay is at least L. So every
// message posted during round (T, T+L] arrives strictly after T+L — i.e. in
// a later round. Draining mailboxes at the barrier therefore delivers every
// message before any domain could possibly execute it, and no domain ever
// receives an event in its past.
//
// Determinism. Domains only share state through mailboxes. At each barrier
// the coordinator — on a single goroutine — drains mailboxes in registration
// order, FIFO within each, scheduling each envelope's dispatch onto the
// receiving Loop at its arrival time. Each Loop assigns its own monotonic
// sequence numbers, so the event order inside every domain is a pure
// function of (round schedule, mailbox registration order, per-domain event
// history) and does not depend on the order in which a round's domains
// run. A round runs only the domains with an event due inside it; any
// other domain's Loop.Run would fire nothing and only move its clock,
// which the coordinator does directly, so skipping it changes no schedule
// either. Because typed envelopes are data (see envelope.go), a
// multi-process execution of a partition of the graph (see shard.go)
// runs the same round loop and produces the same schedule: the same
// envelopes reach the same mailboxes at the same times in the same
// order, whether by reference or by wire.

// Domain is one event loop in a partitioned simulation. All state owned by
// a domain must only be touched from its Loop's callbacks; the only legal
// cross-domain channel is a Mailbox.
type Domain struct {
	Loop *Loop
	name string
	id   int
}

// Name returns the label the domain was created with.
func (d *Domain) Name() string { return d.name }

// pendingEnv is one posted envelope awaiting the round barrier.
type pendingEnv struct {
	at    Time
	env   Envelope
	trace uint64 // sender's causal trace register at Post time
}

// Mailbox is a single-sender, single-receiver channel between two domains
// with a bounded minimum latency. Post may only be called from the sending
// domain's callbacks (or before the coordinator starts running); the
// envelopes are dispatched onto the receiving domain's Loop at the next
// round barrier. See envelope.go for the full envelope contract
// (ordering, min-delay, copy semantics).
type Mailbox struct {
	from, to *Domain
	minDelay Duration
	pending  []pendingEnv
	handlers map[EnvelopeKind]func(payload any)
}

// Post schedules env for dispatch in the receiving domain at virtual time
// at. The arrival must respect the mailbox's minimum delay relative to
// the sender's clock; violating it would break conservative
// synchronization, so Post panics rather than silently reordering time.
// The validation is shared by both directions of a Connect pair and by
// the deprecated PostFunc shim — no entry point or direction skips it.
func (m *Mailbox) Post(at Time, env Envelope) {
	m.checkDelay(at)
	m.pending = append(m.pending, pendingEnv{at: at, env: env, trace: m.from.Loop.curTrace})
}

// PostFunc schedules fn to run in the receiving domain at virtual time
// at — the old closure API, kept as a shim for tests and transitional
// callers.
//
// Deprecated: closures cannot cross a process boundary; use Post with a
// registered envelope kind. PostFunc applies the same min-delay
// validation as Post.
func (m *Mailbox) PostFunc(at Time, fn func()) {
	m.Post(at, Envelope{Kind: KindFunc, Payload: fn})
}

// checkDelay enforces the conservative-synchronization min-delay
// contract against the sender's clock.
func (m *Mailbox) checkDelay(at Time) {
	if now := m.from.Loop.Now(); at.Sub(now) < m.minDelay {
		panic(fmt.Sprintf(
			"sim: Mailbox.Post %s->%s at %v violates min delay %v (sender now %v)",
			m.from.name, m.to.name, at, m.minDelay, now))
	}
}

// OnReceive registers the receiving domain's handler for one envelope
// kind on this mailbox. The handler runs on the receiving domain's Loop
// at each envelope's arrival time. Registration happens at construction
// (before the coordinator runs) and is required for every typed kind the
// mailbox will carry; KindFunc needs no handler (the payload is the
// closure itself). Registering a kind twice panics: handler identity is
// part of the deterministic schedule.
func (m *Mailbox) OnReceive(kind EnvelopeKind, fn func(payload any)) {
	if kind == KindFunc {
		panic("sim: OnReceive(KindFunc): closure envelopes dispatch directly")
	}
	if _, ok := envelopeCodec(kind); !ok {
		panic(fmt.Sprintf("sim: OnReceive of unregistered envelope kind %d", kind))
	}
	if m.handlers == nil {
		m.handlers = make(map[EnvelopeKind]func(any))
	}
	if _, dup := m.handlers[kind]; dup {
		panic(fmt.Sprintf("sim: duplicate OnReceive for envelope kind %s on %s->%s",
			EnvelopeKindName(kind), m.from.name, m.to.name))
	}
	m.handlers[kind] = fn
}

// deliver schedules one envelope's dispatch onto the receiving Loop. A
// KindFunc payload is the event closure itself; a typed payload is
// dispatched through the mailbox's registered handler at the same
// virtual time, so both forms produce identical event schedules. The
// sender's causal trace id is stamped onto the scheduled event so the
// receiving domain's handler (and anything it schedules) continues the
// sender's trace.
func (m *Mailbox) deliver(at Time, env Envelope, trace uint64) {
	if env.Kind == KindFunc {
		m.to.Loop.At(at, env.Payload.(func())).trace = trace
		return
	}
	h := m.handlers[env.Kind]
	if h == nil {
		panic(fmt.Sprintf("sim: no OnReceive handler for envelope kind %s on %s->%s",
			EnvelopeKindName(env.Kind), m.from.name, m.to.name))
	}
	p := env.Payload
	m.to.Loop.At(at, func() { h(p) }).trace = trace
}

// Coordinator advances a set of domains in lockstep rounds of width equal
// to the lookahead, draining mailboxes at the barrier between rounds.
// Each round runs only its active domains — those with an event due by
// the round end — one after another on the calling goroutine, and moves
// every other domain's clock to the round end. The corridor averages
// 2.5 active domains per round of a few microseconds of host time, too
// little work to pay for handing domains to other cores: a worker pool
// measured slower than running them in turn. Run and RunPartitioned
// share this one round loop (runRounds); they differ only in the
// barrier that opens each round.
type Coordinator struct {
	lookahead Duration
	domains   []*Domain
	boxes     []*Mailbox
	now       Time
	rounds    int64
	exchanges int64
	// waitStats, when non-nil, collects per-domain wall-clock barrier
	// waits (EnableWaitStats). workNs is the per-round scratch,
	// indexed by domain id.
	waitStats []waitRec
	workNs    []int64

	// active lists the current round's domains with an event due by its
	// end, in registration order; reused so a round allocates nothing.
	active []*Domain
}

// NewCoordinator returns a coordinator advancing time in rounds of width
// lookahead. Panics if lookahead is not positive: a zero lookahead admits
// no conservative parallelism.
func NewCoordinator(lookahead Duration) *Coordinator {
	if lookahead <= 0 {
		panic("sim: coordinator lookahead must be positive")
	}
	return &Coordinator{lookahead: lookahead}
}

// Lookahead returns the round width.
func (c *Coordinator) Lookahead() Duration { return c.lookahead }

// Now returns the lower bound on virtual time across all domains: every
// domain's clock is at least Now, and all mailboxes posted before Now have
// been delivered.
func (c *Coordinator) Now() Time { return c.now }

// NewDomain registers a new domain with its own Loop.
func (c *Coordinator) NewDomain(name string) *Domain {
	d := &Domain{Loop: NewLoop(), name: name, id: len(c.domains)}
	c.domains = append(c.domains, d)
	return d
}

// Connect creates a mailbox from one domain to another. minDelay must be at
// least the coordinator's lookahead; mailbox drain order follows Connect
// call order, which is part of the deterministic schedule.
func (c *Coordinator) Connect(from, to *Domain, minDelay Duration) *Mailbox {
	if minDelay < c.lookahead {
		panic(fmt.Sprintf("sim: mailbox min delay %v below coordinator lookahead %v",
			minDelay, c.lookahead))
	}
	if from == to {
		panic("sim: mailbox must connect two distinct domains")
	}
	m := &Mailbox{from: from, to: to, minDelay: minDelay}
	c.boxes = append(c.boxes, m)
	return m
}

// drain moves every pending mailbox envelope onto its receiving Loop.
// Runs on the coordinator goroutine while no domain executes, in
// registration order and FIFO within each mailbox, so the resulting
// event sequence numbers are deterministic.
func (c *Coordinator) drain() {
	for _, m := range c.boxes {
		for _, p := range m.pending {
			m.deliver(p.at, p.env, p.trace)
		}
		clearPending(m)
	}
}

// clearPending empties a mailbox, zeroing entries so payloads don't
// pin their referents past delivery.
func clearPending(m *Mailbox) {
	for i := range m.pending {
		m.pending[i] = pendingEnv{}
	}
	m.pending = m.pending[:0]
}

// nextEventAt returns the earliest pending event across all domains.
func (c *Coordinator) nextEventAt() (Time, bool) {
	var best Time
	ok := false
	for _, d := range c.domains {
		if t, has := d.Loop.NextEventAt(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Run advances all domains to virtual time until. It may be called
// repeatedly to advance incrementally. The first round's barrier
// delivers anything posted during construction (sender clocks at zero).
func (c *Coordinator) Run(until Time) {
	if until > c.now {
		_ = c.runRounds(until, nil, nil) // no peers, so no barrier fails
	}
}

// runRounds is the round loop Run and RunPartitioned share. own marks
// the domains this process executes (nil: all of them). Each round
// opens with a barrier, and a closing one delivers what the last round
// posted, so every call leaves every mailbox empty.
func (c *Coordinator) runRounds(until Time, own []bool, bus PeerBus) error {
	timed := c.waitStats != nil
	var r0 time.Time
	for c.now < until {
		if timed {
			r0 = time.Now()
		}
		next, hasNext, err := c.barrier(own, bus, false)
		if err != nil {
			return err
		}
		end := c.now.Add(c.lookahead)
		if !hasNext {
			// Nothing pending anywhere and all mailboxes are drained:
			// no event can materialize, so jump straight to the horizon.
			end = until
		} else if s := next.Add(-c.lookahead); s > end {
			// The earliest event is more than a round away. Advance in
			// one idle round to next-L so the next round (next-L, next]
			// contains it.
			end = s
		}
		if end > until {
			end = until
		}
		c.runRound(end, own, timed)
		if timed {
			c.recordWaits(time.Since(r0).Nanoseconds())
		}
		c.now = end
		c.rounds++
	}
	_, _, err := c.barrier(own, bus, true)
	return err
}

// barrier delivers pending envelopes — by local drain, or by the peer
// exchange when bus is set — and returns the earliest pending event
// across the graph. flush marks the closing barrier of a call.
func (c *Coordinator) barrier(own []bool, bus PeerBus, flush bool) (Time, bool, error) {
	if bus != nil {
		return c.exchangeRound(own, bus, flush)
	}
	c.drain()
	next, ok := c.nextEventAt()
	return next, ok, nil
}

// runRound executes the round (c.now, end] over the owned domains: those
// with an event due by end run to it in registration order, and every
// other owned domain only has its clock moved there. timed records each
// active domain's work time for the barrier-wait statistics.
func (c *Coordinator) runRound(end Time, own []bool, timed bool) {
	c.active = c.active[:0]
	for _, d := range c.domains {
		if own != nil && !own[d.id] {
			continue
		}
		if t, ok := d.Loop.NextEventAt(); ok && t <= end {
			c.active = append(c.active, d)
		} else {
			d.Loop.advance(end)
		}
	}
	if !timed {
		for _, d := range c.active {
			d.Loop.Run(end)
		}
		return
	}
	for _, d := range c.active {
		t0 := time.Now()
		d.Loop.Run(end)
		c.workNs[d.id] = time.Since(t0).Nanoseconds()
	}
}

// Rounds returns the number of synchronization rounds executed so far —
// the coordinator's occupancy measure for telemetry. Read it between
// Run calls only.
func (c *Coordinator) Rounds() int64 { return c.rounds }

// WaitBoundsNs are the bucket bounds (nanoseconds) of the barrier-wait
// histograms: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, +overflow.
var WaitBoundsNs = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// waitRec accumulates one domain's barrier waits.
type waitRec struct {
	rounds  int64
	sumNs   int64
	maxNs   int64
	buckets [8]int64 // len(WaitBoundsNs)+1
}

// WaitStat summarizes one domain's wall-clock barrier waits. A domain
// records a round only when it was active in it (had an event due by the
// round end); its wait is that round's wall time minus the time spent
// running the domain's own events. The wall time includes the round's
// opening barrier: the mailbox drain, or in a partitioned run the peer
// exchange, so there a wait includes waiting on the other processes. A
// domain skipped in a round, or owned by another process, records
// neither a round nor a wait, so Rounds counts the rounds the domain
// worked in, not the coordinator's rounds, and SumNs/Rounds is the mean
// wait per working round. Wall-clock and therefore nondeterministic —
// this deliberately lives outside the telemetry registry (whose
// snapshots must be a pure function of the simulated schedule) and is
// surfaced through wgtt-serve's introspection endpoints instead.
type WaitStat struct {
	Domain  string  `json:"domain"`
	Rounds  int64   `json:"rounds"`
	SumNs   int64   `json:"sum_ns"`
	MaxNs   int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets"` // per WaitBoundsNs, last = overflow
}

// EnableWaitStats turns on barrier-wait collection for subsequent Run
// and RunPartitioned calls (two clock reads per active domain per
// round; off by default so the hot path stays untouched).
func (c *Coordinator) EnableWaitStats() {
	if c.waitStats == nil {
		c.waitStats = make([]waitRec, len(c.domains))
		c.workNs = make([]int64, len(c.domains))
	}
}

// recordWaits folds one timed round's waits (round wall time minus
// the domain's own work time) into the histograms of the round's active
// domains; skipped domains record nothing.
func (c *Coordinator) recordWaits(roundNs int64) {
	for _, d := range c.active {
		wait := roundNs - c.workNs[d.id]
		if wait < 0 {
			wait = 0
		}
		r := &c.waitStats[d.id]
		r.rounds++
		r.sumNs += wait
		if wait > r.maxNs {
			r.maxNs = wait
		}
		bi := len(WaitBoundsNs)
		for j, b := range WaitBoundsNs {
			if wait <= b {
				bi = j
				break
			}
		}
		r.buckets[bi]++
	}
}

// WaitStats returns the per-domain barrier-wait summaries, or nil when
// collection was never enabled. Read it between Run calls only.
func (c *Coordinator) WaitStats() []WaitStat {
	if c.waitStats == nil {
		return nil
	}
	out := make([]WaitStat, len(c.waitStats))
	for i, r := range c.waitStats {
		out[i] = WaitStat{
			Domain:  c.domains[i].name,
			Rounds:  r.rounds,
			SumNs:   r.sumNs,
			MaxNs:   r.maxNs,
			Buckets: append([]int64(nil), r.buckets[:]...),
		}
	}
	return out
}

// PendingEnvelopesFrom returns the number of envelopes currently
// pending in mailboxes whose sender is d — the domain's outgoing
// envelope-queue depth. Posts append and barriers drain, both on the
// domain's own schedule, so when read from one of d's own callbacks
// (the telemetry sampler) the value is a pure function of the simulated
// schedule and is safe to feed a deterministic gauge.
func (c *Coordinator) PendingEnvelopesFrom(d *Domain) int {
	n := 0
	for _, m := range c.boxes {
		if m.from == d {
			n += len(m.pending)
		}
	}
	return n
}
