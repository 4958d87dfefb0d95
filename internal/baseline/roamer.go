package baseline

import (
	"slices"
	"sort"

	"wgtt/internal/backhaul"
	"wgtt/internal/client"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// Mode selects the roaming behaviour.
type Mode int

// Roaming modes.
const (
	// Enhanced is the §5.1 comparison scheme: RSSI threshold, 1 s
	// hysteresis, over-the-air fast transition to the best AP.
	Enhanced Mode = iota
	// Stock11r is the §2 motivation behaviour: a 5-second RSSI history
	// before any decision, over-the-DS transition through the current
	// AP (which is exactly what fails when the current link dies).
	Stock11r
)

// RoamerConfig tunes the client-side roaming logic.
type RoamerConfig struct {
	Mode Mode
	// RSSIThreshold (ESNR dB): below this on the current AP the client
	// looks for a better one.
	RSSIThreshold float64
	// Hysteresis is the minimum spacing between switch attempts
	// (§5.1: one second).
	Hysteresis sim.Duration
	// History is the RSSI observation span required before the first
	// decision (stock 802.11r: 5 s).
	History sim.Duration
	// ReassocRetries bounds over-the-air request retransmissions.
	ReassocRetries int
	// ReassocTimeout spaces those retries.
	ReassocTimeout sim.Duration
	// EWMAWeight smooths beacon RSSI.
	EWMAWeight float64
	// Debounce is how many consecutive below-threshold readings of the
	// current AP are required before roaming — the lag that makes
	// RSSI-threshold roaming late at driving speed.
	Debounce int
	// BeaconLossTimeout declares the current AP lost when its beacons
	// stop arriving for this long (a dead link never crosses the
	// threshold because there is nothing left to measure it with).
	BeaconLossTimeout sim.Duration
}

// DefaultRoamerConfig returns the Enhanced-802.11r tuning of §5.1.
func DefaultRoamerConfig() RoamerConfig {
	return RoamerConfig{
		Mode:              Enhanced,
		RSSIThreshold:     9,
		Hysteresis:        1 * sim.Second,
		History:           0,
		ReassocRetries:    5,
		ReassocTimeout:    50 * sim.Millisecond,
		EWMAWeight:        0.85,
		Debounce:          4,
		BeaconLossTimeout: 500 * sim.Millisecond,
	}
}

// Stock11rConfig returns the §2 stock-802.11r tuning.
func Stock11rConfig() RoamerConfig {
	c := DefaultRoamerConfig()
	c.Mode = Stock11r
	c.History = 5 * sim.Second
	return c
}

// Roamer drives a client's Enhanced-802.11r roaming: it watches beacons,
// applies the threshold + hysteresis rule, and runs the reassociation
// exchange.
type Roamer struct {
	loop   *sim.Loop
	medium *mac.Medium
	cli    *client.Client
	cfg    RoamerConfig

	rssi      map[*mac.Node]float64 // smoothed per-AP RSSI
	heard     []*mac.Node           // APs with an RSSI entry, in node order
	firstSeen map[*mac.Node]sim.Time
	lastSeen  map[*mac.Node]sim.Time
	current   *mac.Node
	lastRoam  sim.Time
	roamed    bool
	below     int // consecutive below-threshold readings of current

	// In-flight reassociation.
	target  *mac.Node
	retries int
	timer   *sim.Event

	// Stats.
	Attempts  int
	Successes int
	Failures  int
}

// NewRoamer attaches roaming logic to a client. initial is the AP node
// the client starts associated with (association state pre-shared per
// §5.1 point 3).
func NewRoamer(loop *sim.Loop, medium *mac.Medium, cli *client.Client, initial *mac.Node, cfg RoamerConfig) *Roamer {
	r := &Roamer{
		loop:      loop,
		medium:    medium,
		cli:       cli,
		cfg:       cfg,
		rssi:      make(map[*mac.Node]float64),
		firstSeen: make(map[*mac.Node]sim.Time),
		lastSeen:  make(map[*mac.Node]sim.Time),
		current:   initial,
	}
	r.apply(initial)
	cli.OnBeacon = r.onBeacon
	cli.OnMgmt = r.onMgmt
	return r
}

// Current returns the AP node the client is associated with.
func (r *Roamer) Current() *mac.Node { return r.current }

// apply points the client's filters at the associated AP.
func (r *Roamer) apply(apNode *mac.Node) {
	r.cli.AcceptFrom = func(tx *mac.Node) bool { return tx == apNode }
	r.cli.UplinkDst = apNode.Addr
}

// onBeacon folds a beacon RSSI observation. Decisions are made on the
// current AP's beacons (that is the signal real clients track) and
// debounced over several readings; beacons from other APs only refresh
// the candidate table — except that their arrival also lets the roamer
// notice the current AP has gone silent.
func (r *Roamer) onBeacon(tx *mac.Node, esnrDB float64) {
	now := r.loop.Now()
	if _, ok := r.firstSeen[tx]; !ok {
		r.firstSeen[tx] = now
		r.rssi[tx] = esnrDB
		i := sort.Search(len(r.heard), func(i int) bool { return r.heard[i].Seq() > tx.Seq() })
		r.heard = slices.Insert(r.heard, i, tx)
	} else {
		w := r.cfg.EWMAWeight
		r.rssi[tx] = w*r.rssi[tx] + (1-w)*esnrDB
	}
	r.lastSeen[tx] = now
	if tx == r.current {
		if r.rssi[tx] < r.cfg.RSSIThreshold {
			r.below++
		} else {
			r.below = 0
		}
		r.evaluate(false)
		return
	}
	// Current AP silent too long? Its beacons stopped decoding, which
	// no threshold rule can observe directly.
	last, ok := r.lastSeen[r.current]
	if ok && r.cfg.BeaconLossTimeout > 0 && now.Sub(last) > r.cfg.BeaconLossTimeout {
		r.evaluate(true)
	}
}

// evaluate applies the threshold/hysteresis rule. lost marks the
// beacon-loss path, which bypasses the debounce (there is nothing left to
// debounce on).
func (r *Roamer) evaluate(lost bool) {
	if r.target != nil {
		return // reassociation already in flight
	}
	now := r.loop.Now()
	if r.roamed && now.Sub(r.lastRoam) < r.cfg.Hysteresis {
		return
	}
	// Stock 802.11r refuses to decide before it has a long history.
	if r.cfg.History > 0 {
		first, ok := r.firstSeen[r.current]
		if !ok || now.Sub(first) < r.cfg.History {
			return
		}
	}
	if !lost && r.below < r.cfg.Debounce {
		return // current AP not convincingly below threshold yet
	}
	cur := r.rssi[r.current]
	// Pick the best candidate heard recently, scanning in node order so
	// the lowest AP wins a tie.
	var best *mac.Node
	bestVal := cur
	for _, ap := range r.heard {
		if ap == r.current {
			continue
		}
		if v := r.rssi[ap]; best == nil || v > bestVal {
			best, bestVal = ap, v
		}
	}
	if best == nil || (!lost && bestVal <= cur) {
		return
	}
	r.below = 0
	r.startReassoc(best)
}

// startReassoc launches the fast-transition exchange toward target.
func (r *Roamer) startReassoc(target *mac.Node) {
	r.target = target
	r.retries = 0
	r.Attempts++
	r.lastRoam = r.loop.Now()
	r.roamed = true
	r.sendReassoc()
}

// sendReassoc transmits the request: over the air to the target
// (Enhanced) or through the current AP (stock over-the-DS).
func (r *Roamer) sendReassoc() {
	dst := r.target
	if r.cfg.Mode == Stock11r {
		dst = r.current
	}
	tgt := r.target
	r.medium.Contend(r.cli.Node(), 8, func() {
		if r.target != tgt {
			return // attempt superseded
		}
		r.medium.Transmit(&mac.Transmission{
			Tx:   r.cli.Node(),
			Dst:  dst.Addr,
			Type: mac.FrameMgmt,
			Rate: phy.BasicRate,
			Mgmt: mac.MgmtInfo{Kind: mac.MgmtReassocReq, Target: tgt.Addr},
		})
	})
	r.timer = r.loop.After(r.cfg.ReassocTimeout, r.reassocTimeout)
}

// reassocTimeout retries or abandons the attempt.
func (r *Roamer) reassocTimeout() {
	if r.target == nil {
		return
	}
	r.retries++
	if r.retries > r.cfg.ReassocRetries {
		r.Failures++
		r.target = nil
		return
	}
	r.sendReassoc()
}

// onMgmt completes the exchange on ReassocResp.
func (r *Roamer) onMgmt(tx *mac.Node, info mac.MgmtInfo) {
	if info.Kind != mac.MgmtReassocResp || r.target == nil {
		return
	}
	if tx != r.target {
		return
	}
	r.loop.Cancel(r.timer)
	r.current = r.target
	r.target = nil
	r.Successes++
	r.apply(r.current)
}

// Bridge is the baseline's wired side: a learning switch that forwards
// downlink packets to the client's associated AP and uplink packets to
// the server, replicating association changes to all APs.
type Bridge struct {
	loop   *sim.Loop
	bh     *backhaul.Net
	self   backhaul.NodeID
	fabric Fabric
	server backhaul.NodeID
	apBase int // global id of this segment's first AP
	numAPs int
	peers  []Peer

	assoc   map[packet.MAC]uint16
	ipToMAC map[packet.IP]packet.MAC
	macToIP map[packet.MAC]packet.IP

	// Stats.
	DownlinkPackets int
	UplinkPackets   int
	NoRoutePackets  int
	// Cross-segment re-association stats.
	HandoffClaims    int // claims sent toward the previous segment
	HandoffTransfers int // wired state received from a neighbour
}

// Peer is the sending half of a trunk toward an adjacent segment's
// bridge.
type Peer interface {
	Deliver(msg packet.Message)
}

// NewBridge creates the baseline bridge at backhaul node self. apBase is
// the global deployment id of this segment's first AP (0 when the
// deployment is a single segment).
func NewBridge(loop *sim.Loop, bh *backhaul.Net, self backhaul.NodeID, fabric Fabric, server backhaul.NodeID, apBase, numAPs int) *Bridge {
	b := &Bridge{
		loop:    loop,
		bh:      bh,
		self:    self,
		fabric:  fabric,
		server:  server,
		apBase:  apBase,
		numAPs:  numAPs,
		assoc:   make(map[packet.MAC]uint16),
		ipToMAC: make(map[packet.IP]packet.MAC),
		macToIP: make(map[packet.MAC]packet.IP),
	}
	bh.AddNode(self, b.OnBackhaul)
	return b
}

// ConnectPeer attaches a trunk toward an adjacent segment's bridge and
// returns its peer index.
func (b *Bridge) ConnectPeer(p Peer) int {
	b.peers = append(b.peers, p)
	return len(b.peers) - 1
}

// RegisterClient announces client addressing.
func (b *Bridge) RegisterClient(addr packet.MAC, ip packet.IP) {
	b.ipToMAC[ip] = addr
	b.macToIP[addr] = ip
}

// AssociatedAP reports the AP id the client is attached to (-1 none).
func (b *Bridge) AssociatedAP(addr packet.MAC) int {
	id, ok := b.assoc[addr]
	if !ok {
		return -1
	}
	return int(id)
}

// OnBackhaul handles AP and server messages.
func (b *Bridge) OnBackhaul(from backhaul.NodeID, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.AssocState:
		b.assoc[m.Client] = m.AID - 1
		if !m.IP.IsZero() {
			b.ipToMAC[m.IP] = m.Client
			b.macToIP[m.Client] = m.IP
		}
		// Replicate to every other AP so the previous one releases
		// the client.
		for id := b.apBase; id < b.apBase+b.numAPs; id++ {
			if uint16(id) == m.AID-1 {
				continue
			}
			b.bh.Send(b.self, b.fabric.APNode(uint16(id)), m)
		}
		// A reassociation by a client whose wired state we don't hold:
		// it roamed in from an adjacent segment — claim its IP binding
		// from the previous bridge.
		if _, known := b.macToIP[m.Client]; !known && len(b.peers) > 0 {
			b.HandoffClaims++
			for _, p := range b.peers {
				p.Deliver(&packet.Handoff{Kind: packet.HandoffBridgeClaim, Client: m.Client})
			}
		}
	case *packet.ReassocRelay:
		// An over-the-DS fast transition whose target AP lives in
		// another segment: relay across the trunks; the owning bridge
		// delivers it.
		for _, p := range b.peers {
			p.Deliver(m)
		}
	case *packet.UplinkData:
		b.UplinkPackets++
		b.bh.Send(b.self, b.server, &packet.ServerData{Inner: m.Inner})
	case *packet.ServerData:
		b.Downlink(m.Inner)
	}
}

// OnTrunk handles traffic from the adjacent bridge at peer index `peer`.
func (b *Bridge) OnTrunk(peer int, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.Handoff:
		switch m.Kind {
		case packet.HandoffBridgeClaim:
			b.onBridgeClaim(peer, m)
		case packet.HandoffBridgeTransfer:
			b.onBridgeTransfer(m)
		}
	case *packet.ReassocRelay:
		if int(m.TargetAPID) >= b.apBase && int(m.TargetAPID) < b.apBase+b.numAPs {
			b.bh.Send(b.self, b.fabric.APNode(m.TargetAPID), m)
		}
	}
}

// onBridgeClaim releases a client that reassociated onto the claiming
// segment and transfers its IP binding.
func (b *Bridge) onBridgeClaim(peer int, m *packet.Handoff) {
	ip, known := b.macToIP[m.Client]
	if !known {
		return // not ours — some other neighbour owns it
	}
	delete(b.assoc, m.Client)
	delete(b.macToIP, m.Client)
	// AID 0 mismatches every local AP, so all of them release the
	// client and drop its stale backlog.
	for id := b.apBase; id < b.apBase+b.numAPs; id++ {
		b.bh.Send(b.self, b.fabric.APNode(uint16(id)), &packet.AssocState{
			Client: m.Client, State: packet.StateAssociated,
		})
	}
	b.peers[peer].Deliver(&packet.Handoff{
		Kind: packet.HandoffBridgeTransfer, Client: m.Client, IP: ip,
	})
}

// onBridgeTransfer installs the IP binding handed over by the previous
// segment's bridge and updates the wired server's route.
func (b *Bridge) onBridgeTransfer(m *packet.Handoff) {
	b.ipToMAC[m.IP] = m.Client
	b.macToIP[m.Client] = m.IP
	b.HandoffTransfers++
	apID, ok := b.assoc[m.Client]
	if !ok {
		return // released again before the transfer landed
	}
	b.bh.Send(b.self, b.server, &packet.AssocState{
		Client: m.Client, IP: m.IP, AID: apID + 1, State: packet.StateAssociated,
	})
}

// Downlink forwards one wired packet toward the client's AP.
func (b *Bridge) Downlink(p packet.Packet) {
	addr, ok := b.ipToMAC[p.Dst]
	if !ok {
		b.NoRoutePackets++
		return
	}
	apID, ok := b.assoc[addr]
	if !ok {
		b.NoRoutePackets++
		return
	}
	b.DownlinkPackets++
	b.bh.Send(b.self, b.fabric.APNode(apID), &packet.DownlinkData{Client: addr, Inner: p})
}
