// Package mac models the 802.11n link layer the WGTT mechanisms plug
// into: a CSMA medium with carrier sense, capture and collisions; A-MPDU
// frame aggregation; and compressed block acknowledgements with the
// transmitter-side retry machinery that block-ACK forwarding (§3.2.1)
// feeds.
package mac

import (
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// FrameType distinguishes PPDU kinds on the air.
type FrameType int

// Frame kinds.
const (
	FrameData FrameType = iota
	FrameBlockAck
	FrameBeacon
	FrameMgmt
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "Data"
	case FrameBlockAck:
		return "BlockAck"
	case FrameBeacon:
		return "Beacon"
	case FrameMgmt:
		return "Mgmt"
	}
	return "Frame(?)"
}

// MPDU is one subframe of an A-MPDU: a MAC sequence number plus the
// tunneled IP packet it carries.
type MPDU struct {
	Seq     uint16 // 12-bit MAC sequence number
	Pkt     packet.Packet
	Retries int
}

// BAInfo is the payload of a compressed block ACK frame: the window start
// sequence and a 64-bit bitmap where bit i acknowledges seq StartSeq+i.
type BAInfo struct {
	StartSeq uint16
	Bitmap   uint64
}

// Acked reports whether seq is acknowledged by the bitmap.
func (b BAInfo) Acked(seq uint16) bool {
	d := seqDist(b.StartSeq, seq)
	if d < 0 || d >= 64 {
		return false
	}
	return b.Bitmap&(1<<uint(d)) != 0
}

// Merge ORs another bitmap over the same window into b. Windows must
// share StartSeq; merging disjoint windows is a no-op. This implements
// the serving AP folding a forwarded block ACK into its own (§3.2.1).
func (b *BAInfo) Merge(other BAInfo) {
	if other.StartSeq != b.StartSeq {
		return
	}
	b.Bitmap |= other.Bitmap
}

// MgmtKind enumerates the management exchanges the roaming protocols use.
type MgmtKind int

// Management frame kinds (802.11 authentication/association and the
// 802.11r fast-transition reassociation).
const (
	MgmtAuthReq MgmtKind = iota
	MgmtAuthResp
	MgmtAssocReq
	MgmtAssocResp
	MgmtReassocReq
	MgmtReassocResp
)

// String implements fmt.Stringer.
func (k MgmtKind) String() string {
	switch k {
	case MgmtAuthReq:
		return "AuthReq"
	case MgmtAuthResp:
		return "AuthResp"
	case MgmtAssocReq:
		return "AssocReq"
	case MgmtAssocResp:
		return "AssocResp"
	case MgmtReassocReq:
		return "ReassocReq"
	case MgmtReassocResp:
		return "ReassocResp"
	}
	return "Mgmt(?)"
}

// MgmtInfo is the payload of a management frame.
type MgmtInfo struct {
	Kind MgmtKind
	// Target names the AP a reassociation addresses.
	Target packet.MAC
}

// mgmtFrameBytes is the over-the-air size of a management frame.
const mgmtFrameBytes = 90

// beaconBytes is the over-the-air size of a beacon frame.
const beaconBytes = 120

// Transmission is one PPDU on the air.
type Transmission struct {
	Tx   *Node
	Dst  packet.MAC // intended receiver; Broadcast for beacons
	Type FrameType
	Rate phy.Rate

	// MPDUs carries the aggregate's subframes (FrameData only).
	MPDUs []MPDU
	// BA is the block-ack payload (FrameBlockAck only).
	BA BAInfo
	// Mgmt is the management payload (FrameMgmt only).
	Mgmt MgmtInfo

	// Start and End bracket the PPDU's airtime; filled by the Medium.
	Start, End sim.Time
	// expectsBA marks unicast data that reserves the medium for the
	// SIFS + BA response (NAV).
	expectsBA bool
	// pooled marks transmissions acquired from Medium.NewTransmission;
	// only those return to the free list when they leave the overlap
	// window. Literal-built transmissions stay unpooled and are never
	// recycled.
	pooled bool
	// deliverEv is the scheduled PPDU-end delivery, kept so Unregister
	// can silence a migrating node's in-flight transmission. It is
	// nil'd at fire time so a late cancel never touches a recycled
	// event.
	deliverEv *sim.Event
	// aud is the audibility bitmap the medium's index built when the PPDU
	// went on air (bit Node.Seq() set for every node that may hear it),
	// covering the first audN seqs; nodes registered later count as
	// audible. With no index, or after the medium renumbered its seqs,
	// audN is 0 and every node counts as audible.
	aud  []uint64
	audN int
}

// Broadcast is the all-ones destination address.
var Broadcast = packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Airtime returns the PPDU's on-air duration.
func (t *Transmission) Airtime() sim.Duration {
	switch t.Type {
	case FrameData:
		if len(t.MPDUs) == 0 {
			return 0
		}
		// Subframes may differ in size; sum payloads.
		total := 0
		for i := range t.MPDUs {
			total += phy.MPDUDelimiter + phy.MACHeader + t.MPDUs[i].Pkt.WireLen()
		}
		return phy.PLCPPreamble + phy.PayloadAirtime(t.Rate, total)
	case FrameBlockAck:
		return phy.BlockAckAirtime
	case FrameBeacon:
		return phy.PLCPPreamble + phy.PayloadAirtime(phy.BasicRate, beaconBytes)
	case FrameMgmt:
		return phy.PLCPPreamble + phy.PayloadAirtime(phy.BasicRate, mgmtFrameBytes)
	}
	return 0
}

// seqDist is modular distance in the 12-bit MAC sequence space.
func seqDist(a, b uint16) int {
	d := int((b - a) & 0x0fff)
	if d >= 0x0800 {
		d -= 0x1000
	}
	return d
}

// NextSeq advances a 12-bit MAC sequence counter.
func NextSeq(s uint16) uint16 { return (s + 1) & 0x0fff }
