package core

import (
	"fmt"
	"math"

	"wgtt/internal/backhaul"
	"wgtt/internal/channel"
	"wgtt/internal/client"
	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

// This file builds the domain-partitioned execution of a multi-segment
// deployment (Config.Domains != SingleLoop): every segment becomes a
// sim.Domain owning its own event loop, radio-medium partition, backhaul,
// and control plane; one extra domain hosts the wired server. Domains
// interact only through sim.Mailboxes whose minimum latency is the trunk
// propagation delay, which is therefore the conservative-synchronization
// lookahead. Clients are owned by exactly one segment domain at a time;
// a per-domain border patrol migrates a client's radio to the adjacent
// segment when its position says so, and the controllers' existing
// cross-segment claim/handoff protocol then moves the control-plane state
// over the trunk exactly as it does on the single-loop path.

// patrolInterval paces the per-domain border patrol. It must be long
// relative to the lookahead (so migration latency is dominated by physics,
// not patrol quantization) and short relative to handoff dynamics; 5 ms
// adds at most one beacon interval of extra staleness to a crossing.
const patrolInterval = 5 * sim.Millisecond

// segDomain is one segment's execution domain.
type segDomain struct {
	n      *Network
	idx    int
	dom    *sim.Domain
	medium *mac.Medium

	// resident maps each owned client to its adoption generation; the
	// generation distinguishes a client's current residency from a
	// previous one (a client can leave and come back), so callbacks
	// scheduled during an old residency can detect they are stale. Only
	// this domain touches the map.
	resident map[*client.Client]uint64
	nextGen  uint64
	// order lists owned clients in adoption order, the deterministic
	// iteration order for the patrol.
	order []*Client

	toPrev   *sim.Mailbox // nil on the first segment
	toNext   *sim.Mailbox // nil on the last segment
	toServer *sim.Mailbox
	// mbTo maps every trunk-linked segment (adjacent chain plus any
	// federation ring/bypass trunks) to this domain's outgoing mailbox;
	// toPrev/toNext are aliases into it for the patrol.
	mbTo map[int]*sim.Mailbox

	// Boundary-interference exchange (Config.BoundaryInterference).
	// bounds lists the adjacent-chain neighbours and the shared boundary
	// x coordinate; remoteTx holds the neighbour transmissions currently
	// raising this domain's noise floor. Counters feed the parity tests.
	bounds          []segBoundary
	remoteTx        []remoteTx
	boundaryPosted  int
	boundaryApplied int
}

// segBoundary names one adjacent segment and the x coordinate of the
// boundary shared with it (the midpoint between the facing APs).
type segBoundary struct {
	to        int
	boundaryX float64
}

// remoteTx summarizes a neighbour-domain transmission near the shared
// boundary: when it was on air and the large-scale facts the backend
// needs to price its co-channel energy here.
type remoteTx struct {
	start, end sim.Time
	pos        rf.Position
	isAP       bool
}

// remoteTxLinger keeps an expired remoteTx long enough that any local
// transmission it overlapped — whose delivery evaluates at PPDU end —
// still sees it. 10 ms comfortably exceeds the longest aggregate.
const remoteTxLinger = 10 * sim.Millisecond

// aliveAt returns the liveness check handed to a client for one
// residency: it is true only while the client is still owned by this
// domain under the same adoption generation. The closure reads only this
// domain's state and is only invoked by events on this domain's loop.
func (s *segDomain) aliveAt(cl *client.Client, gen uint64) func() bool {
	return func() bool { return s.resident[cl] == gen }
}

// acceptResident records initial ownership of a client built directly on
// this domain (construction time).
func (s *segDomain) acceptResident(c *Client) {
	s.nextGen++
	s.resident[c.Client] = s.nextGen
	s.order = append(s.order, c)
	c.SetAlive(s.aliveAt(c.Client, s.nextGen))
}

// adopt attaches a migrating client to this domain. Runs as a mailbox
// thunk on this domain's loop, one lookahead after the Detach.
func (s *segDomain) adopt(c *Client) {
	s.nextGen++
	s.resident[c.Client] = s.nextGen
	s.order = append(s.order, c)
	c.Attach(s.dom.Loop, s.medium, s.aliveAt(c.Client, s.nextGen))
}

// patrol walks the domain's clients and hands off any whose position now
// belongs to another segment, one adjacent hop per tick. The radio moves
// immediately (Detach) and the adoption lands one lookahead later in the
// neighbour; the controllers' claim protocol follows on its own.
func (s *segDomain) patrol() {
	s.dom.Loop.After(patrolInterval, s.patrol)
	now := s.dom.Loop.Now()
	kept := s.order[:0]
	for _, c := range s.order {
		want := s.n.segmentForPos(c.Traj.Pos(now))
		var mb *sim.Mailbox
		switch {
		case want > s.idx && s.toNext != nil:
			mb = s.toNext
		case want < s.idx && s.toPrev != nil:
			mb = s.toPrev
		}
		if mb == nil {
			kept = append(kept, c)
			continue
		}
		c.Detach()
		delete(s.resident, c.Client)
		// The kindMigrate handler registered on mb belongs to the
		// adjacent domain (wireDomainEnvelopes) and adopts the client.
		mb.Post(now.Add(s.n.Cfg.Trunk.PropDelay), sim.Envelope{Kind: kindMigrate, Payload: c})
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
}

// segmentForPos returns the index of the segment owning a road position
// (the one whose AP is nearest). Pure geometry — safe from any domain.
func (n *Network) segmentForPos(pos rf.Position) int {
	return n.Deploy.SegmentOfAP(n.nearestAP(pos)).Index
}

// newDomainNetwork builds the partitioned form of the network. The
// resulting behaviour is NOT bit-identical to the single-loop path (the
// medium is partitioned, so cross-segment radio interference disappears
// and per-segment RNG streams replace the shared one); what IS guaranteed
// is that the in-process run and every partitioned multi-process run of
// it are bit-identical to each other, which the parity tests pin.
func newDomainNetwork(cfg Config, model channel.Model) (*Network, error) {
	geoms := cfg.segmentGeoms()
	lookahead := cfg.Trunk.PropDelay
	coord := sim.NewCoordinator(lookahead)
	rng := sim.NewRNG(cfg.Seed)
	n := &Network{
		Cfg:         cfg,
		Coord:       coord,
		rng:         rng,
		model:       model,
		nodeKind:    make(map[*mac.Node]nodeRef),
		serverDemux: make(map[uint16]func(packet.Packet)),
		route:       make(map[packet.IP]int),
		serverDedup: make(map[packet.DedupKey]bool),
	}
	for i := range geoms {
		d := coord.NewDomain(fmt.Sprintf("seg%d", i))
		sd := &segDomain{
			n: n, idx: i, dom: d,
			resident: make(map[*client.Client]uint64),
		}
		sd.medium = mac.NewMedium(d.Loop, &netChannel{n: n, loop: d.Loop},
			rng.Fork(fmt.Sprintf("medium%d", i)))
		if cfg.audibilityIndexEnabled() {
			sd.medium.SetAudibilityIndex(newAudIndex(n, d.Loop))
		}
		n.segs = append(n.segs, sd)
	}
	server := coord.NewDomain("server")
	n.Loop = server.Loop
	if cfg.Telemetry {
		n.initTelemetryDomains(coord, server)
	}

	// Mailboxes: every trunk-linked segment pair (the adjacent chain
	// plus any federation ring/bypass trunks — trunk traffic + client
	// migration) and every segment's link to the wired server. All share
	// the trunk propagation delay, so one lookahead bounds them all.
	// Trunk jitter is strictly additive on top of PropDelay, so faulted
	// deployments keep the same lookahead.
	for _, sd := range n.segs {
		sd.mbTo = make(map[int]*sim.Mailbox)
	}
	var pairs [][2]int
	for i := 0; i+1 < len(n.segs); i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	pairs = append(pairs, cfg.extraTrunks()...)
	for _, e := range pairs {
		i, j := e[0], e[1]
		if i > j {
			i, j = j, i
		}
		if n.segs[i].mbTo[j] != nil {
			continue // duplicate extra pair
		}
		n.segs[i].mbTo[j] = coord.Connect(n.segs[i].dom, n.segs[j].dom, lookahead)
		n.segs[j].mbTo[i] = coord.Connect(n.segs[j].dom, n.segs[i].dom, lookahead)
	}
	for i := 0; i+1 < len(n.segs); i++ {
		n.segs[i].toNext = n.segs[i].mbTo[i+1]
		n.segs[i+1].toPrev = n.segs[i+1].mbTo[i]
	}
	for _, sd := range n.segs {
		sd.toServer = coord.Connect(sd.dom, server, lookahead)
		n.serverToSeg = append(n.serverToSeg, coord.Connect(server, sd.dom, lookahead))
	}
	n.trunkWired = make(map[*sim.Mailbox]bool)
	n.wireDomainEnvelopes()
	fedTopo := cfg.federationTopology()

	d, err := deploy.Builder{
		Geoms:       geoms,
		Backhaul:    cfg.Backhaul,
		Trunk:       cfg.Trunk,
		ExtraTrunks: cfg.extraTrunks(),
		FaultSeed:   cfg.Seed,
		Telemetry:   n.segTel,
		SegmentLoop: func(i int) *sim.Loop { return n.segs[i].dom.Loop },
		TrunkLink:   n.trunkLink,
		ServerHandler: func(si int) backhaul.Handler {
			sd := n.segs[si]
			return func(from backhaul.NodeID, msg packet.Message) {
				// The segment's server tap crosses into the server
				// domain; route/dedup state then stays server-local.
				// ServerData arrives in the backhaul's decode scratch
				// and the envelope outlives the handler call, so the
				// payload embeds a copy.
				tp := &serverTapPayload{seg: si, from: from}
				if d, ok := msg.(*packet.ServerData); ok {
					tp.sd = *d
					tp.msg = &tp.sd
				} else {
					tp.msg = msg
				}
				sd.toServer.Post(sd.dom.Loop.Now().Add(lookahead),
					sim.Envelope{Kind: kindServerTap, Payload: tp})
			}
		},
		BuildPlane: func(seg *deploy.Segment) deploy.Plane {
			sd := n.segs[seg.Index]
			rec := trace.NewRecorder(seg.Index, cfg.FlightRecorder)
			n.recs = append(n.recs, rec)
			p := deploy.NewWGTTPlane(seg, sd.dom.Loop, sd.medium, rec,
				n.segTel(seg.Index), rng, cfg.AP, cfg.Controller)
			n.attachFederation(fedTopo, seg.Index, sd.dom.Loop, p.Ctrl)
			if n.Ctrl == nil {
				n.Ctrl = p.Ctrl
			}
			for _, a := range p.APs {
				n.APs = append(n.APs, a)
				n.apNodes = append(n.apNodes, a.Node())
				n.nodeKind[a.Node()] = nodeRef{isAP: true, idx: int(a.ID)}
			}
			return p
		},
	}.Build()
	if err != nil {
		return nil, err
	}
	n.Deploy = d
	n.Backhaul = d.Segments[0].Backhaul
	n.resolveAPGeometry()
	n.wireServerSendEnvelopes()
	for _, sd := range n.segs {
		sd := sd
		sd.dom.Loop.After(patrolInterval, sd.patrol)
	}
	if cfg.BoundaryInterference {
		n.wireBoundaryInterference(geoms)
	}
	return n, nil
}

// wireBoundaryInterference connects adjacent segment domains' media so
// that transmissions within BoundaryZoneM of a shared boundary are
// exported to the neighbour as co-channel interference. The export rides
// the same mailboxes (and therefore the same trunk-propagation
// lookahead) as all other cross-domain traffic, so in-process and
// partitioned runs stay bit-identical to each other.
func (n *Network) wireBoundaryInterference(geoms []deploy.Geometry) {
	lastX := func(i int) float64 {
		return geoms[i].FirstAPX + float64(geoms[i].NumAPs-1)*geoms[i].APSpacing
	}
	for i, sd := range n.segs {
		if i+1 < len(n.segs) {
			sd.bounds = append(sd.bounds, segBoundary{
				to: i + 1, boundaryX: (lastX(i) + geoms[i+1].FirstAPX) / 2})
		}
		if i > 0 {
			sd.bounds = append(sd.bounds, segBoundary{
				to: i - 1, boundaryX: (lastX(i-1) + geoms[i].FirstAPX) / 2})
		}
		sd := sd
		sd.medium.SetOnTransmit(sd.exportBoundaryTx)
		sd.medium.SetInterference(sd.remoteInterference)
		for _, b := range sd.bounds {
			dst := n.segs[b.to]
			sd.mbTo[b.to].OnReceive(kindBoundary, func(p any) {
				dst.acceptRemoteTx(*p.(*remoteTx))
			})
		}
	}
}

// exportBoundaryTx posts a boundary-zone transmission summary to the
// adjacent domains; it fires synchronously inside Medium.Transmit.
func (s *segDomain) exportBoundaryTx(t *mac.Transmission) {
	pos := t.Tx.Pos()
	ref, ok := s.n.nodeKind[t.Tx]
	if !ok {
		return
	}
	for _, b := range s.bounds {
		if math.Abs(pos.X-b.boundaryX) > s.n.Cfg.BoundaryZoneM {
			continue
		}
		rec := &remoteTx{start: t.Start, end: t.End, pos: pos, isAP: ref.isAP}
		s.mbTo[b.to].Post(s.dom.Loop.Now().Add(s.n.Cfg.Trunk.PropDelay),
			sim.Envelope{Kind: kindBoundary, Payload: rec})
		s.boundaryPosted++
	}
}

// acceptRemoteTx lands a neighbour's boundary-zone summary on this
// domain's loop, one lookahead after it went on air, and prunes entries
// past their linger.
func (s *segDomain) acceptRemoteTx(rec remoteTx) {
	now := s.dom.Loop.Now()
	kept := s.remoteTx[:0]
	for _, r := range s.remoteTx {
		if r.end.Add(remoteTxLinger) > now {
			kept = append(kept, r)
		}
	}
	s.remoteTx = kept
	if rec.end.Add(remoteTxLinger) > now {
		s.remoteTx = append(s.remoteTx, rec)
	}
}

// remoteInterference implements the medium's external-interference hook:
// the summed linear interference-over-noise the receiver accumulates
// from neighbour-domain boundary transmissions overlapping t's airtime.
func (s *segDomain) remoteInterference(rx *mac.Node, t *mac.Transmission) float64 {
	if len(s.remoteTx) == 0 {
		return 0
	}
	var iLin float64
	rxPos := rx.Pos()
	hit := false
	for _, r := range s.remoteTx {
		if r.start < t.End && t.Start < r.end {
			ion := s.n.model.InterferenceOverNoiseDB(r.isAP, r.pos, rxPos)
			iLin += math.Pow(10, ion/10)
			hit = true
		}
	}
	if hit {
		s.boundaryApplied++
	}
	return iLin
}

// BoundaryInterferenceStats sums the exchange counters across segment
// domains: summaries posted to neighbours, and deliveries whose SINR saw
// a nonzero remote term. Zero/zero when the feature is off.
func (n *Network) BoundaryInterferenceStats() (posted, applied int) {
	for _, sd := range n.segs {
		posted += sd.boundaryPosted
		applied += sd.boundaryApplied
	}
	return
}
