package sim

import "fmt"

// This file extends the coordinator across process boundaries. A
// partitioned run executes the same conservative round schedule as Run,
// but each participating process owns a subset of the domains and the
// processes exchange one RoundMsg per round over a PeerBus. The
// construction is SPMD: every process builds the FULL domain graph from
// the same configuration and seed (so mailbox registration order, kind
// registration and handler wiring are identical everywhere), then runs
// only its owned domains' loops. Remote loops exist but never execute:
// their clocks stay at zero, their pending events never fire, and their
// RNG streams are never drawn — they are pure wiring.
//
// Round protocol (every process, in lockstep):
//
//  1. collect: encode the pending envelopes of every owned-sender
//     mailbox whose receiver is remote (global registration order, FIFO
//     within each), and compute next_p — the earliest future event this
//     process knows about: the minimum over owned loops' NextEventAt
//     and the arrival times of ALL pending envelopes posted by owned
//     senders (including owned→owned ones not yet drained).
//  2. exchange: send RoundMsg{seq, next_p, batches} to every peer,
//     receive theirs. The global next is the min over all processes;
//     every envelope is counted by its sender, so the global next
//     equals the single-process coordinator's post-drain nextEventAt.
//  3. drain: in global mailbox registration order, deliver owned→owned
//     envelopes from the local pending slice and remote→owned ones by
//     decoding the sender's batch; discard owned→remote (already sent)
//     and ignore remote→remote batches.
//  4. advance: the rest of Run's round (runRounds, whose opening
//     barrier steps 1–3 are), restricted to the owned domains.
//
// The closing barrier is a flush round (an exchange with Flush set and
// no clock advance) that delivers envelopes produced in the last round,
// leaving every mailbox empty at the call boundary — exactly the state
// Run leaves behind, so partitioned and single-process runs may be
// sliced at the same virtual times interchangeably.
//
// Because the round ends, the mailbox drain order and the per-loop
// event sequence numbers are all pure functions of the same exchanged
// data, a partitioned run is bit-identical to Run on the whole graph —
// pinned by TestRunPartitionedParity and, end to end, by
// TestMultiProcessParity at the repo root.

// WireEnvelope is one serialized envelope inside a round message. Trace
// carries the sender's causal trace id across the process boundary so a
// stitched flight-recorder timeline follows a handoff between shards.
type WireEnvelope struct {
	At    Time
	Kind  EnvelopeKind
	Trace uint64
	Data  []byte
}

// BoxBatch carries one mailbox's envelopes for one round, FIFO. Box is
// the mailbox's global registration index (Connect call order), which
// is identical in every process by SPMD construction.
type BoxBatch struct {
	Box       int
	Envelopes []WireEnvelope
}

// RoundMsg is one process's contribution to one synchronization round.
type RoundMsg struct {
	// Seq numbers the exchanges of a run, starting at 0; flush
	// exchanges consume sequence numbers like any other.
	Seq int64
	// Next is the earliest future event this process knows about
	// (owned loops plus envelopes posted by owned senders); HasNext
	// is false when it knows of none.
	Next    Time
	HasNext bool
	// Flush marks the terminal exchange of a RunPartitioned call.
	Flush bool
	// Boxes holds the owned-sender→remote-receiver envelopes, in
	// mailbox registration order.
	Boxes []BoxBatch
}

// PeerBus exchanges round messages with every peer process: it sends m
// and returns one RoundMsg per peer for the same sequence number. The
// wire package implements it over UDS/TCP; tests implement it in
// process.
type PeerBus interface {
	Exchange(m RoundMsg) ([]RoundMsg, error)
}

// RunPartitioned advances the owned subset of domains to virtual time
// until, exchanging cross-process envelopes over bus once per round.
// owned reports whether this process executes a domain; every process
// of the run must partition the domains identically and disjointly.
// It may be called repeatedly to advance incrementally, but every
// process must make the same sequence of calls with the same until
// values — the exchange schedule is part of the lockstep protocol.
//
// Envelopes pending at entry (construction or user posts made outside
// the run, which SPMD construction duplicates in every process) are
// delivered receiver-canonically: each process drains its own copy for
// owned receivers and discards copies destined to remote ones.
func (c *Coordinator) RunPartitioned(until Time, owned func(*Domain) bool, bus PeerBus) error {
	if until <= c.now {
		return nil
	}
	own := make([]bool, len(c.domains))
	for i, d := range c.domains {
		own[i] = owned(d)
	}

	// Construction drain, receiver-canonical (see doc comment).
	for _, m := range c.boxes {
		if own[m.to.id] {
			for _, p := range m.pending {
				m.deliver(p.at, p.env, p.trace)
			}
		}
		clearPending(m)
	}

	return c.runRounds(until, own, bus)
}

// exchangeRound performs steps 1–3 of the round protocol and returns
// the global (next, hasNext).
func (c *Coordinator) exchangeRound(own []bool, bus PeerBus, flush bool) (Time, bool, error) {
	var next Time
	hasNext := false
	note := func(t Time) {
		if !hasNext || t < next {
			next, hasNext = t, true
		}
	}
	for _, d := range c.domains {
		if own[d.id] {
			if t, has := d.Loop.NextEventAt(); has {
				note(t)
			}
		}
	}
	var out []BoxBatch
	for bi, m := range c.boxes {
		if !own[m.from.id] {
			continue
		}
		for _, p := range m.pending {
			note(p.at)
		}
		if own[m.to.id] || len(m.pending) == 0 {
			continue
		}
		batch := BoxBatch{Box: bi, Envelopes: make([]WireEnvelope, 0, len(m.pending))}
		for _, p := range m.pending {
			codec, ok := envelopeCodec(p.env.Kind)
			if !ok || codec.Encode == nil {
				return 0, false, fmt.Errorf(
					"sim: local-only envelope kind %s posted %s->%s across a process boundary",
					EnvelopeKindName(p.env.Kind), m.from.name, m.to.name)
			}
			batch.Envelopes = append(batch.Envelopes, WireEnvelope{
				At:    p.at,
				Kind:  p.env.Kind,
				Trace: p.trace,
				Data:  codec.Encode(p.env.Payload, nil),
			})
		}
		out = append(out, batch)
	}

	msgs, err := bus.Exchange(RoundMsg{
		Seq: c.exchanges, Next: next, HasNext: hasNext, Flush: flush, Boxes: out,
	})
	c.exchanges++
	if err != nil {
		return 0, false, err
	}

	// Merge the peers' batches by mailbox index and fold their nexts.
	var remote map[int][]WireEnvelope
	for _, pm := range msgs {
		if pm.HasNext {
			note(pm.Next)
		}
		for _, b := range pm.Boxes {
			if b.Box < 0 || b.Box >= len(c.boxes) {
				return 0, false, fmt.Errorf("sim: peer batch for unknown mailbox %d", b.Box)
			}
			if !own[c.boxes[b.Box].to.id] {
				continue // some other process's traffic
			}
			if remote == nil {
				remote = make(map[int][]WireEnvelope)
			}
			if remote[b.Box] != nil {
				return 0, false, fmt.Errorf("sim: two peers sent batches for mailbox %d", b.Box)
			}
			remote[b.Box] = b.Envelopes
		}
	}

	// Drain in global registration order, merging local and decoded
	// remote traffic; the order is identical to the single-process
	// coordinator's drain.
	for bi, m := range c.boxes {
		switch {
		case own[m.from.id] && own[m.to.id]:
			for _, p := range m.pending {
				m.deliver(p.at, p.env, p.trace)
			}
			clearPending(m)
		case own[m.from.id]:
			clearPending(m) // encoded and sent above
		case own[m.to.id]:
			for _, we := range remote[bi] {
				codec, ok := envelopeCodec(we.Kind)
				if !ok || codec.Decode == nil {
					return 0, false, fmt.Errorf("sim: peer sent undecodable envelope kind %d on mailbox %d",
						we.Kind, bi)
				}
				payload, err := codec.Decode(we.Data)
				if err != nil {
					return 0, false, fmt.Errorf("sim: decoding %s envelope on mailbox %d: %w",
						EnvelopeKindName(we.Kind), bi, err)
				}
				m.deliver(we.At, Envelope{Kind: we.Kind, Payload: payload}, we.Trace)
			}
		}
	}
	return next, hasNext, nil
}

// Exchanges returns the number of PeerBus exchanges performed by
// RunPartitioned calls so far — the resume point a checkpoint records.
func (c *Coordinator) Exchanges() int64 { return c.exchanges }
