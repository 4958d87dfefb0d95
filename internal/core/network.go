package core

import (
	"fmt"
	"math"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/baseline"
	"wgtt/internal/channel"
	"wgtt/internal/client"
	"wgtt/internal/controller"
	"wgtt/internal/csi"
	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// Client couples a mobile station with its trajectory and per-port
// downlink demultiplexer.
type Client struct {
	*client.Client
	Traj   mobility.Trajectory
	Roamer *baseline.Roamer // baseline schemes only
	demux  map[uint16]func(packet.Packet)
}

// Handle registers a downlink consumer for a destination port on this
// client (a transport endpoint).
func (c *Client) Handle(port uint16, fn func(packet.Packet)) {
	c.demux[port] = fn
}

// Network is a fully wired deployment: the shared radio medium and
// clients on one side, and an ordered chain of road segments (each with
// its own controller/bridge, APs, and backhaul domain) on the other.
type Network struct {
	Cfg  Config
	Loop *sim.Loop

	// Coord drives per-segment execution domains (Config.Domains on a
	// multi-segment deployment); nil on the classic single-loop path.
	// When set, Loop is the wired-server domain's loop and Medium is nil
	// — the radio medium is partitioned per segment.
	Coord *sim.Coordinator

	Medium *mac.Medium
	// Deploy is the segment chain. Backhaul, Ctrl, APs, Bridge, and
	// BaseAPs below are convenience views over it: Backhaul/Ctrl/Bridge
	// are segment 0's (the only segment in the classic deployment), and
	// the AP slices aggregate every segment in global-id order.
	Deploy   *deploy.Deployment
	Backhaul *backhaul.Net

	Ctrl    *controller.Controller
	APs     []*ap.AP
	Bridge  *baseline.Bridge
	BaseAPs []*baseline.AP

	Clients []*Client

	// recs[i] is segment i's flight recorder (Config.FlightRecorder > 0);
	// entries are nil when disabled or for baseline planes. In domain
	// mode each recorder is written only by its segment's goroutine.
	recs []*trace.Recorder

	rng        *sim.RNG
	serverIPID uint16
	// model is the channel-model backend (Config.ChannelBackend); all
	// propagation, CSI synthesis, and the MCS ladder come from it.
	model channel.Model
	// sdOut is the reusable server-data shell for the single-loop
	// SendFromServer path (Send serializes synchronously).
	sdOut   packet.ServerData
	apNodes []*mac.Node
	// apPos[i] is global AP i's mounting position, resolved once at
	// construction (Config.APPosition re-resolves the segment chain and
	// allocates on every call).
	apPos []rf.Position
	// links[clientID][apIdx] is the radio channel realization.
	links       [][]channel.Link
	nodeKind    map[*mac.Node]nodeRef
	serverDemux map[uint16]func(packet.Packet)
	// Wired-server routing and de-duplication across segments.
	route        map[packet.IP]int
	serverDedup  map[packet.DedupKey]bool
	serverDedupQ []packet.DedupKey
	// ServerDuplicates counts uplink packets that reached the wired
	// server through more than one segment's controller.
	ServerDuplicates int

	// Domain-partitioned execution (Coord != nil).
	segs        []*segDomain
	serverToSeg []*sim.Mailbox
	// trunkChans numbers the directed trunk transports in TrunkLink
	// call order (deterministic — part of the cross-process schedule);
	// trunkWired marks mailboxes whose kindTrunk demux is registered.
	trunkChans []*trunkChannel
	trunkWired map[*sim.Mailbox]bool

	// Telemetry (Config.Telemetry; nil/empty when disabled). telSegs[i]
	// is segment i's scope — a root-shard view on the single-loop path,
	// a per-domain shard in domain mode; telRoot is the wired server's.
	tel     *telemetry.Registry
	telSegs []telemetry.Scope
	telRoot telemetry.Scope
}

type nodeRef struct {
	isAP bool
	idx  int
}

// NewNetwork builds and wires a deployment. Clients are added with
// AddClient before Run. The configuration is validated first; an
// invalid one returns a descriptive error.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := buildModel(&cfg)
	if err != nil {
		return nil, err
	}
	// The handoff latency band rides on the controller's config so the
	// deploy layer needs no extra plumbing; controllers only evaluate it
	// when a flight recorder is attached.
	cfg.Controller.HandoffBandLoMs = cfg.HandoffBandLoMs
	cfg.Controller.HandoffBandHiMs = cfg.HandoffBandHiMs
	if cfg.Domains != SingleLoop && len(cfg.segmentGeoms()) > 1 {
		return newDomainNetwork(cfg, model)
	}
	loop := sim.NewLoop()
	rng := sim.NewRNG(cfg.Seed)
	n := &Network{
		Cfg:         cfg,
		Loop:        loop,
		rng:         rng,
		model:       model,
		nodeKind:    make(map[*mac.Node]nodeRef),
		serverDemux: make(map[uint16]func(packet.Packet)),
		route:       make(map[packet.IP]int),
		serverDedup: make(map[packet.DedupKey]bool),
	}
	if cfg.Telemetry {
		n.initTelemetrySingle(loop, len(cfg.segmentGeoms()))
	}
	n.Medium = mac.NewMedium(loop, &netChannel{n: n, loop: loop}, rng.Fork("medium"))
	if cfg.audibilityIndexEnabled() {
		n.Medium.SetAudibilityIndex(newAudIndex(n, loop))
	}
	fedTopo := cfg.federationTopology()

	d, err := deploy.Builder{
		Loop:        loop,
		Geoms:       cfg.segmentGeoms(),
		Backhaul:    cfg.Backhaul,
		Trunk:       cfg.Trunk,
		ExtraTrunks: cfg.extraTrunks(),
		FaultSeed:   cfg.Seed,
		Telemetry:   n.segTel,
		ServerHandler: func(si int) backhaul.Handler {
			return func(from backhaul.NodeID, msg packet.Message) {
				n.onServerBackhaul(si, from, msg)
			}
		},
		BuildPlane: func(seg *deploy.Segment) deploy.Plane {
			// The only scheme switch in the network: pick the plane.
			switch cfg.Scheme {
			case WGTT:
				rec := trace.NewRecorder(seg.Index, cfg.FlightRecorder)
				n.recs = append(n.recs, rec)
				p := deploy.NewWGTTPlane(seg, loop, n.Medium, rec,
					n.segTel(seg.Index), rng, cfg.AP, cfg.Controller)
				n.attachFederation(fedTopo, seg.Index, loop, p.Ctrl)
				if n.Ctrl == nil {
					n.Ctrl = p.Ctrl
				}
				for _, a := range p.APs {
					n.APs = append(n.APs, a)
					n.apNodes = append(n.apNodes, a.Node())
					n.nodeKind[a.Node()] = nodeRef{isAP: true, idx: int(a.ID)}
				}
				return p
			default:
				n.recs = append(n.recs, nil)
				p := deploy.NewBaselinePlane(seg, loop, n.Medium, rng, cfg.BaselineAP)
				if n.Bridge == nil {
					n.Bridge = p.Bridge
				}
				for _, a := range p.APs {
					n.BaseAPs = append(n.BaseAPs, a)
					n.apNodes = append(n.apNodes, a.Node())
					n.nodeKind[a.Node()] = nodeRef{isAP: true, idx: int(a.ID)}
				}
				return p
			}
		},
	}.Build()
	if err != nil {
		return nil, err
	}
	n.Deploy = d
	n.Backhaul = d.Segments[0].Backhaul
	n.resolveAPGeometry()
	return n, nil
}

// resolveAPGeometry fills apPos once the plane has registered every AP.
func (n *Network) resolveAPGeometry() {
	n.apPos = make([]rf.Position, n.TotalAPs())
	for i := range n.apPos {
		n.apPos[i] = n.Cfg.APPosition(i)
	}
}

// buildModel instantiates the configured channel backend and fills the
// plane configs' rate tables from it when the caller left them nil, so
// APs and clients transmit with the backend's MCS ladder.
func buildModel(cfg *Config) (channel.Model, error) {
	m, err := cfg.ChannelModel()
	if err != nil {
		return nil, err
	}
	if cfg.AP.Rates == nil {
		cfg.AP.Rates = m.Rates()
	}
	if cfg.Client.Rates == nil {
		cfg.Client.Rates = m.Rates()
	}
	return m, nil
}

// Model exposes the active channel backend (experiments sample it for
// heatmaps and diagnostics).
func (n *Network) Model() channel.Model { return n.model }

// MustNewNetwork is NewNetwork for callers holding an
// already-validated configuration; it panics on error.
func MustNewNetwork(cfg Config) *Network {
	n, err := NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// TotalAPs is the deployment-wide AP count.
func (n *Network) TotalAPs() int { return len(n.apNodes) }

// Controllers returns every segment's controller (WGTT only; nil
// entries never occur — baselines return an empty slice).
func (n *Network) Controllers() []*controller.Controller {
	var cs []*controller.Controller
	for _, s := range n.Deploy.Segments {
		if p, ok := s.Plane.(*deploy.WGTTPlane); ok {
			cs = append(cs, p.Ctrl)
		}
	}
	return cs
}

// Bridges returns every segment's baseline bridge.
func (n *Network) Bridges() []*baseline.Bridge {
	var bs []*baseline.Bridge
	for _, s := range n.Deploy.Segments {
		if p, ok := s.Plane.(*deploy.BaselinePlane); ok {
			bs = append(bs, p.Bridge)
		}
	}
	return bs
}

// AddClient attaches a mobile client following traj. Clients must be
// added before Run; the returned handle carries the transport hookup
// points.
func (n *Network) AddClient(traj mobility.Trajectory) *Client {
	id := len(n.Clients)
	loop, medium := n.Loop, n.Medium
	var home *segDomain
	if n.Coord != nil {
		// Domain mode: the segment whose AP is nearest the start owns
		// the client's radio.
		home = n.segs[n.Deploy.SegmentOfAP(n.nearestAP(traj.Pos(0))).Index]
		loop, medium = home.dom.Loop, home.medium
	}
	cl := client.New(id, loop, medium, traj, n.Cfg.Client, n.rng.Fork(fmt.Sprintf("client%d", id)))
	c := &Client{Client: cl, Traj: traj, demux: make(map[uint16]func(packet.Packet))}
	cl.OnPacket = func(p packet.Packet) {
		if fn := c.demux[p.DstPort]; fn != nil {
			fn(p)
		}
	}
	n.nodeKind[cl.Node()] = nodeRef{isAP: false, idx: id}

	// Per-AP radio links for this client, in global AP order.
	total := n.TotalAPs()
	row := make([]channel.Link, total)
	for i := 0; i < total; i++ {
		row[i] = n.model.NewLink(n.apPos[i],
			n.rng.Fork(fmt.Sprintf("link-%d-%d", i, id)))
	}
	n.links = append(n.links, nil) // placeholder, replaced below
	n.links[id] = row
	n.Clients = append(n.Clients, c)

	// Association: the segment whose AP is nearest the client's start
	// owns it first; its plane registers the state (WGTT replicates
	// sta_info, baselines force-associate and return the roamer's
	// initial AP).
	pos := traj.Pos(n.Loop.Now())
	seg := n.Deploy.SegmentOfAP(n.nearestAP(pos))
	if node := seg.Plane.Associate(id, cl.Addr, cl.IP, pos); node != nil {
		c.Roamer = baseline.NewRoamer(n.Loop, n.Medium, cl, node, n.Cfg.Roamer)
	}
	n.route[cl.IP] = seg.Index
	if n.tel != nil {
		n.clientGauges(seg.Index, id)
	}
	if home != nil {
		home.acceptResident(c)
	}
	return c
}

// nearestAP returns the global AP id closest to pos.
func (n *Network) nearestAP(pos rf.Position) int {
	best, bestD := 0, math.Inf(1)
	for i, ap := range n.apPos {
		if d := ap.Distance(pos); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Run advances the network to the given virtual time.
func (n *Network) Run(until sim.Duration) {
	if n.Coord != nil {
		n.Coord.Run(sim.Time(until))
	} else {
		n.Loop.Run(sim.Time(until))
	}
	n.noteUnownedSpike(nil)
}

// ServerHandle registers an uplink consumer for a destination port at the
// wired server.
func (n *Network) ServerHandle(port uint16, fn func(packet.Packet)) {
	n.serverDemux[port] = fn
}

// SendFromServer injects a downlink packet at the wired server (the Wire
// for server-side transport endpoints). Like a real IP stack, the server
// host stamps the IP identification field from a single per-host counter
// shared by all its flows — the de-duplication key downstream depends on
// host-wide uniqueness, not per-connection uniqueness. The packet enters
// the backhaul of the segment currently routing the destination client.
func (n *Network) SendFromServer(p packet.Packet) {
	if p.Src.IsZero() {
		p.Src = packet.ServerIP
	}
	n.serverIPID++
	p.IPID = n.serverIPID
	si := 0
	if s, ok := n.route[p.Dst]; ok {
		si = s
	}
	if n.Coord != nil {
		// Cross the server→segment mailbox; the backhaul hop itself runs
		// in the segment domain (the kindServerSend handler registered in
		// wireServerSendEnvelopes). The envelope serializes later, so the
		// message cannot be scratch here.
		n.serverToSeg[si].Post(n.Loop.Now().Add(n.Cfg.Trunk.PropDelay),
			sim.Envelope{Kind: kindServerSend, Payload: &packet.ServerData{Inner: p}})
		return
	}
	// Single-loop path: Send serializes synchronously, so reuse a shell.
	n.sdOut = packet.ServerData{Inner: p}
	n.Deploy.Segments[si].Backhaul.Send(deploy.NodeServer, deploy.NodeController, &n.sdOut)
}

// onServerBackhaul receives uplink packets at the wired server's tap on
// segment si, and association updates that re-route a handed-off
// client's downlink. With several segments, a packet relayed by more
// than one controller is de-duplicated here on its (src IP, IP-ID) key.
func (n *Network) onServerBackhaul(si int, from backhaul.NodeID, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.ServerData:
		if len(n.Deploy.Segments) > 1 {
			k := m.Inner.DedupKey()
			if n.serverDedup[k] {
				n.ServerDuplicates++
				return
			}
			n.serverDedup[k] = true
			n.serverDedupQ = append(n.serverDedupQ, k)
			if len(n.serverDedupQ) > serverDedupCap {
				delete(n.serverDedup, n.serverDedupQ[0])
				n.serverDedupQ = n.serverDedupQ[1:]
			}
		}
		if fn := n.serverDemux[m.Inner.DstPort]; fn != nil {
			fn(m.Inner)
		}
	case *packet.AssocState:
		if !m.IP.IsZero() {
			n.route[m.IP] = si
		}
	}
}

// serverDedupCap bounds the server-side de-duplication hashset.
const serverDedupCap = 1 << 16

// ServingAP reports which AP currently serves/associates client id (-1
// none), as a global AP id.
func (n *Network) ServingAP(clientID int) int {
	c := n.Clients[clientID]
	if c.Roamer != nil {
		// Baselines: the client-side view of the association.
		ref, ok := n.nodeKind[c.Roamer.Current()]
		if !ok || !ref.isAP {
			return -1
		}
		return ref.idx
	}
	for _, s := range n.Deploy.Segments {
		if id := s.Plane.ServingAP(c.Addr); id >= 0 {
			return id
		}
	}
	return -1
}

// LinkESNRdB returns the instantaneous effective SNR of the ap↔client
// link at the client's current position — ground truth for oracle
// comparisons (Table 2) and the Fig. 2 traces.
func (n *Network) LinkESNRdB(apIdx, clientID int) float64 {
	var snrs [rf.NumSubcarriers]float64
	now := n.Loop.Now()
	pos := n.Clients[clientID].Traj.Pos(now)
	n.links[clientID][apIdx].SubcarrierSNRsDB(now, pos, snrs[:])
	return csi.EffectiveSNRdB(snrs[:], csi.RefModulation)
}

// OracleBestAP returns the AP with maximal instantaneous ESNR to the
// client.
func (n *Network) OracleBestAP(clientID int) int {
	best, bestV := 0, math.Inf(-1)
	for i := 0; i < n.TotalAPs(); i++ {
		if v := n.LinkESNRdB(i, clientID); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// netChannel implements mac.Channel over the deployment geometry for one
// radio domain: the whole network on the single-loop path, or one
// segment's medium partition in domain mode. Positions are sampled on the
// domain's own clock so concurrent domains never read another loop.
type netChannel struct {
	n    *Network
	loop *sim.Loop
}

// SubcarrierSNRs implements mac.Channel.
func (nc *netChannel) SubcarrierSNRs(tx, rx *mac.Node, dst []float64) bool {
	n := nc.n
	tref, tok := n.nodeKind[tx]
	rref, rok := n.nodeKind[rx]
	if !tok || !rok {
		return false
	}
	switch {
	case tref.isAP && !rref.isAP:
		// Downlink: AP → client.
		now := nc.loop.Now()
		pos := n.Clients[rref.idx].Traj.Pos(now)
		n.links[rref.idx][tref.idx].SubcarrierSNRsDB(now, pos, dst)
		return true
	case !tref.isAP && rref.isAP:
		// Uplink: reciprocal channel.
		now := nc.loop.Now()
		pos := n.Clients[tref.idx].Traj.Pos(now)
		n.links[tref.idx][rref.idx].SubcarrierSNRsDB(now, pos, dst)
		return true
	case !tref.isAP && !rref.isAP:
		snr := nc.clientClientSNR(tref.idx, rref.idx)
		if snr < -5 {
			return false
		}
		for i := range dst {
			dst[i] = snr
		}
		return true
	default:
		// AP ↔ AP: only sensing matters; give them a flat strong
		// channel within range.
		snr := nc.SenseSNRdB(tx, rx)
		if snr < -5 {
			return false
		}
		for i := range dst {
			dst[i] = snr
		}
		return true
	}
}

// SenseSNRdB implements mac.Channel (large-scale only).
func (nc *netChannel) SenseSNRdB(tx, rx *mac.Node) float64 {
	n := nc.n
	tref, tok := n.nodeKind[tx]
	rref, rok := n.nodeKind[rx]
	if !tok || !rok {
		return -100
	}
	switch {
	case tref.isAP && !rref.isAP:
		now := nc.loop.Now()
		pos := n.Clients[rref.idx].Traj.Pos(now)
		return n.links[rref.idx][tref.idx].MeanSNRdB(now, pos)
	case !tref.isAP && rref.isAP:
		now := nc.loop.Now()
		pos := n.Clients[tref.idx].Traj.Pos(now)
		return n.links[tref.idx][rref.idx].MeanSNRdB(now, pos)
	case !tref.isAP && !rref.isAP:
		return nc.clientClientSNR(tref.idx, rref.idx)
	default:
		if n.apPos[tref.idx].Distance(n.apPos[rref.idx]) <= n.Cfg.APAPSenseRangeM {
			return n.Cfg.APAPSenseSNRdB
		}
		return apAPOutOfRangeSNRdB
	}
}

// apAPOutOfRangeSNRdB is the AP↔AP budget beyond APAPSenseRangeM: under
// mac.AudibleFloorDB, so the audibility index may leave such pairs clear.
const apAPOutOfRangeSNRdB = -10

// DetectHeadroomDB implements mac.DetectHeadroomer by delegating to the
// backend's analytic constructive-fading bound. It licenses the medium's
// cheap large-scale rejection of implausible receivers.
func (nc *netChannel) DetectHeadroomDB() float64 {
	return nc.n.model.DetectHeadroomDB()
}

// clientClientSNR is the vehicle-to-vehicle budget (the backend's flat
// client↔client path).
func (nc *netChannel) clientClientSNR(a, b int) float64 {
	n := nc.n
	pa := n.Clients[a].Traj.Pos(nc.loop.Now())
	pb := n.Clients[b].Traj.Pos(nc.loop.Now())
	return n.model.ClientClientSNRdB(pa.Distance(pb))
}
