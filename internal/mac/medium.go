package mac

import (
	"math"
	"math/bits"

	"wgtt/internal/csi"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Channel supplies the instantaneous radio state between two nodes. The
// core package implements it over rf.Link realizations; mac stays agnostic
// of geometry.
type Channel interface {
	// SubcarrierSNRs fills dst (rf.NumSubcarriers long) with the
	// per-subcarrier SNR in dB at rx for a transmission from tx, and
	// reports whether rx can hear tx at all.
	SubcarrierSNRs(tx, rx *Node, dst []float64) bool
	// SenseSNRdB returns the large-scale SNR rx observes from tx, used
	// for carrier sensing (energy detection ignores fast fading).
	SenseSNRdB(tx, rx *Node) float64
}

// DetectHeadroomer is an optional Channel capability: the maximum dB by
// which any per-subcarrier SNR (and hence the effective SNR) can exceed
// the large-scale SenseSNRdB, i.e. an upper bound on constructive fast
// fading plus a safety margin. When a channel provides it, the medium
// rejects receivers with SenseSNRdB + headroom < detectThresholdDB before
// paying for the per-subcarrier fill — a pure fast path that can never
// skip a node the full evaluation would have detected.
type DetectHeadroomer interface {
	DetectHeadroomDB() float64
}

// AudibilityIndex is an optional spatial prefilter over the medium's
// registered nodes. The medium calls MarkAudible once per PPDU, as it
// goes on air, and keeps the bitmap on the Transmission: delivery, carrier
// sense (busyUntil, BlockAckOnAir) and capture (collided) all skip a node
// whose bit is clear without evaluating the channel. MarkAudible must
// therefore set the bit Node.Seq() for every registered node whose
// large-scale SenseSNRdB from tx could reach AudibleFloorDB, or whose
// per-subcarrier SNRs could lift its ESNR to DetectThresholdDB, at any
// instant of the next AudibilitySpan — the bitmap's lifetime. False
// positives merely cost the normal per-node evaluation, but a false
// negative would silently change delivery, sensing or capture, so
// implementations must be strictly conservative (when in doubt, mark the
// bit). The medium still applies its own threshold tests to every marked
// node, which is what keeps index-on and index-off runs bit-identical.
// Nodes registered after MarkAudible ran, and every node once the
// medium renumbers its seqs, count as marked.
type AudibilityIndex interface {
	// Register and Unregister mirror the medium's node set.
	Register(n *Node)
	Unregister(n *Node)
	// MarkAudible sets candidate bits (indexed by Node.Seq()) in bitmap.
	MarkAudible(tx *Node, bitmap []uint64)
}

// Detection is what a receiver learns from one PPDU: per-MPDU decode
// outcomes and the CSI measured on the frame.
type Detection struct {
	// OK[i] reports whether MPDU i decoded (FrameData only). The slice
	// is the medium's per-delivery scratch: it is valid only for the
	// duration of the OnReceive call and is recycled afterwards, so a
	// receiver that needs the outcomes later must copy them.
	OK []bool
	// Collided marks the whole PPDU destroyed by an overlapping
	// transmission.
	Collided bool
	// SNRsDB is the CSI snapshot measured on this reception.
	SNRsDB [rf.NumSubcarriers]float64
	// ESNRdB is the effective SNR at the frame's modulation.
	ESNRdB float64
}

// Receiver consumes deliveries from the medium.
type Receiver interface {
	// OnReceive fires at PPDU end for every audible node except the
	// transmitter. Frames whose preamble was undetectable are filtered
	// before this call.
	OnReceive(t *Transmission, det Detection)
}

// Node is one radio on the channel.
type Node struct {
	Name string
	Addr packet.MAC
	// Pos reports the node's current position (mobile for clients).
	Pos func() rf.Position
	// Recv handles deliveries; nil nodes only transmit.
	Recv Receiver
	// transmitting marks an in-flight PPDU from this node.
	transmitting bool
	// seq is the node's slot in the owning medium's bySeq table,
	// assigned at Register. Audibility indexes address nodes by it.
	seq int
}

// Seq returns the node's registration slot on its current medium, the
// bit position an AudibilityIndex uses in MarkAudible bitmaps.
func (n *Node) Seq() int { return n.seq }

// Thresholds (dB over noise floor).
const (
	// senseThresholdDB: energy above this is "channel busy" (≈ −82 dBm
	// CCA with a −95 dBm floor).
	senseThresholdDB = 13
	// detectThresholdDB: below this a preamble is undetectable.
	detectThresholdDB = 1
	// captureMarginDB: a frame survives an overlap when it is this much
	// stronger than the interferer (preamble capture).
	captureMarginDB = 10
)

// Audibility-index contract constants, exposed for index
// implementations and their tests.
const (
	// DetectThresholdDB is the preamble-detection threshold.
	DetectThresholdDB = detectThresholdDB
	// SenseThresholdDB is the carrier-sense (CCA) threshold.
	SenseThresholdDB = senseThresholdDB
	// AudibleFloorDB is the lowest large-scale SNR at which a node can
	// still matter to a PPDU: a frame is detected at ESNR ≥
	// DetectThresholdDB and survives an interferer up to captureMarginDB
	// below it, so an interferer at or under this floor never collides,
	// and the sense threshold sits far above it.
	AudibleFloorDB = detectThresholdDB - captureMarginDB
	// AudibilitySpan is how long a MarkAudible bitmap is trusted after
	// the PPDU starts. Probes reach back to an active transmission o
	// until navEnd(o) for carrier sense and until the end of any PPDU
	// overlapping o for capture, i.e. at most two maximal aggregates
	// after o.Start; probes past the span (a PPDU longer than the TXOP
	// cap) fall back to the full channel evaluation.
	AudibilitySpan = 2 * phy.MaxAMPDUAirtime
)

// Medium is the shared 2.4 GHz channel: it arbitrates access (CSMA with
// binary-exponential-style backoff), applies the ESNR→PER error model per
// MPDU per receiver, and resolves collisions with capture.
type Medium struct {
	loop    *sim.Loop
	channel Channel
	rng     *sim.RNG
	nodes   []*Node
	active  []*Transmission
	stats   MediumStats

	// bySeq maps Node.seq → node, with nil holes after Unregister. Its
	// non-nil entries are always in registration order — the same order
	// as m.nodes — so bitmap-driven delivery visits receivers exactly
	// like the brute-force scan does.
	bySeq []*Node
	// index, when set, builds each PPDU's audibility bitmap (see
	// Transmission.aud), pruning delivery, carrier sense and capture to
	// plausibly-audible nodes.
	index AudibilityIndex

	// headroomDB caches the channel's DetectHeadroomDB capability.
	headroomDB  float64
	hasHeadroom bool

	// onTransmit, when set, observes every transmission as it goes on
	// air (the cross-domain boundary-interference exchange taps it).
	onTransmit func(t *Transmission)
	// interference, when set, returns the summed linear
	// interference-over-noise a receiver accumulates during t from
	// sources this medium cannot model itself (remote-domain
	// transmissions). Zero means none; a positive value is applied as a
	// flat per-subcarrier SINR penalty before the ESNR evaluation.
	interference func(rx *Node, t *Transmission) float64

	// txFree recycles pooled Transmissions (see NewTransmission);
	// okScratch is the shared per-delivery Detection.OK buffer.
	txFree    []*Transmission
	okScratch []bool
}

// MediumStats counts medium-level events.
type MediumStats struct {
	PPDUs      int
	MPDUs      int
	MPDULosses int
	Collisions int
}

// NewMedium creates the channel on the given loop.
func NewMedium(loop *sim.Loop, channel Channel, rng *sim.RNG) *Medium {
	m := &Medium{loop: loop, channel: channel, rng: rng}
	if h, ok := channel.(DetectHeadroomer); ok {
		m.headroomDB = h.DetectHeadroomDB()
		m.hasHeadroom = true
	}
	return m
}

// SetOnTransmit installs (or, with nil, removes) the on-air observation
// hook; it fires synchronously inside Transmit after Start/End are
// stamped. The observer must not mutate or retain the transmission.
func (m *Medium) SetOnTransmit(fn func(t *Transmission)) { m.onTransmit = fn }

// SetInterference installs (or, with nil, removes) the external
// interference source consulted per delivery (see the interference
// field). Nil keeps the delivery path bit-identical to a hook-free
// medium.
func (m *Medium) SetInterference(fn func(rx *Node, t *Transmission) float64) {
	m.interference = fn
}

// SetAudibilityIndex installs (or, with nil, removes) the spatial
// prefilter. Already-registered nodes are replayed into the index so it
// can be attached after the plane is built.
func (m *Medium) SetAudibilityIndex(idx AudibilityIndex) {
	m.index = idx
	if idx != nil {
		for _, n := range m.nodes {
			idx.Register(n)
		}
	}
}

// Register attaches a node to the channel.
func (m *Medium) Register(n *Node) {
	n.seq = len(m.bySeq)
	m.bySeq = append(m.bySeq, n)
	m.nodes = append(m.nodes, n)
	if m.index != nil {
		m.index.Register(n)
	}
}

// Unregister detaches a node from the channel: the node stops hearing
// deliveries, its in-flight transmissions are silenced (their delivery
// events canceled), and its pending contention grants are abandoned (the
// grant event finds the node gone and returns). Used by cross-segment
// client migration; the node can later be Registered on another medium.
func (m *Medium) Unregister(n *Node) {
	out := m.nodes[:0]
	for _, x := range m.nodes {
		if x != n {
			out = append(out, x)
		}
	}
	for i := len(out); i < len(m.nodes); i++ {
		m.nodes[i] = nil
	}
	m.nodes = out

	if n.seq < len(m.bySeq) && m.bySeq[n.seq] == n {
		m.bySeq[n.seq] = nil
	}
	if m.index != nil {
		m.index.Unregister(n)
	}
	// Migration churn leaves nil holes; when they dominate, renumber.
	// Compaction preserves relative order, so delivery order (and hence
	// the RNG stream) is unaffected.
	// Renumbering invalidates the audibility bitmaps of transmissions
	// still on air: they fall back to treating every node as audible.
	if len(m.bySeq) >= 256 && len(m.nodes)*2 < len(m.bySeq) {
		m.bySeq = m.bySeq[:0]
		for _, x := range m.nodes {
			x.seq = len(m.bySeq)
			m.bySeq = append(m.bySeq, x)
		}
		for _, t := range m.active {
			t.aud, t.audN = t.aud[:0], 0
		}
	}

	act := m.active[:0]
	for _, t := range m.active {
		if t.Tx == n {
			m.loop.Cancel(t.deliverEv)
			n.transmitting = false
			m.releaseTx(t)
			continue
		}
		act = append(act, t)
	}
	for i := len(act); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = act
}

// registered reports whether n is attached to this medium.
func (m *Medium) registered(n *Node) bool {
	return n.seq < len(m.bySeq) && m.bySeq[n.seq] == n
}

// Stats returns medium counters.
func (m *Medium) Stats() MediumStats { return m.stats }

// NewTransmission returns a zeroed Transmission from the medium's free
// list. Pooled transmissions are recycled once they leave m.active (at
// the post-delivery prune, or at Unregister), so the caller — and every
// receiver — must not retain the pointer past its OnReceive/scheduled
// callbacks; copy the fields that outlive the delivery (typically
// Tx.Addr and the BA window) instead. Transmissions built as literals
// are never recycled, which is what tests and cold paths rely on.
func (m *Medium) NewTransmission() *Transmission {
	if k := len(m.txFree); k > 0 {
		t := m.txFree[k-1]
		m.txFree[k-1] = nil
		m.txFree = m.txFree[:k-1]
		return t
	}
	return &Transmission{pooled: true}
}

// releaseTx recycles a pooled transmission. MPDU slices are owned by the
// sender's aggregator, so the reset only drops the reference; the
// audibility bitmap's storage is kept for the next PPDU.
func (m *Medium) releaseTx(t *Transmission) {
	if !t.pooled {
		return
	}
	*t = Transmission{pooled: true, aud: t.aud[:0]}
	m.txFree = append(m.txFree, t)
}

// markAudible builds t's audibility bitmap over the nodes registered
// now. Without an index, or for a PPDU that outlasts AudibilitySpan, the
// bitmap stays empty and covers no seq, so every node counts as audible.
func (m *Medium) markAudible(t *Transmission) {
	t.aud, t.audN = t.aud[:0], 0
	if m.index == nil || t.End > t.Start.Add(AudibilitySpan) {
		return
	}
	words := (len(m.bySeq) + 63) / 64
	if cap(t.aud) < words {
		t.aud = make([]uint64, words)
	} else {
		t.aud = t.aud[:words]
		clear(t.aud)
	}
	m.index.MarkAudible(t.Tx, t.aud)
	t.audN = len(m.bySeq)
}

// mayHear reports whether node n can sense, detect or be interfered with
// by t at time now, as far as t's audibility bitmap knows: a clear bit
// means no. Nodes the bitmap does not cover — registered after it was
// built, not registered here, or probed past AudibilitySpan — may.
func (m *Medium) mayHear(t *Transmission, n *Node, now sim.Time) bool {
	s := n.seq
	if s >= t.audN || m.bySeq[s] != n || now > t.Start.Add(AudibilitySpan) {
		return true
	}
	return t.aud[s>>6]&(1<<(s&63)) != 0
}

// navEnd returns the time until which t occupies the medium for carrier
// sense: PPDU end, extended by the SIFS + block-ACK NAV reservation for
// unicast data.
func navEnd(t *Transmission) sim.Time {
	if t.expectsBA {
		return t.End.Add(phy.SIFS + phy.BlockAckAirtime)
	}
	return t.End
}

// busyUntil returns the time until which node n senses the channel busy,
// including NAV reservations for pending block ACKs. Transmissions whose
// audibility bitmap clears n are skipped without a channel probe.
func (m *Medium) busyUntil(n *Node) sim.Time {
	var until sim.Time
	now := m.loop.Now()
	for _, t := range m.active {
		end := navEnd(t)
		if end <= now {
			continue
		}
		if t.Tx != n && !m.mayHear(t, n, now) {
			if gateCheck {
				m.checkSkippedSense(t, n)
			}
			continue
		}
		if t.Tx == n || m.channel.SenseSNRdB(t.Tx, n) >= senseThresholdDB {
			if end > until {
				until = end
			}
		}
	}
	return until
}

// BlockAckOnAir reports whether a block ACK from another node is
// currently on the air audible to n. Secondary responders (non-serving
// APs acking an uplink frame) use this as their CCA check before sending
// a redundant ack; BAs that started within the last microsecond are
// invisible (the radio's CCA blind window), which is what makes the rare
// residual ack collisions of Table 3 possible.
func (m *Medium) BlockAckOnAir(n *Node) bool {
	now := m.loop.Now()
	for _, t := range m.active {
		if t.Type != FrameBlockAck || t.Tx == n {
			continue
		}
		if t.End <= now || t.Start > now.Add(-500*sim.Nanosecond) {
			continue
		}
		if !m.mayHear(t, n, now) {
			if gateCheck {
				m.checkSkippedSense(t, n)
			}
			continue
		}
		if m.channel.SenseSNRdB(t.Tx, n) >= senseThresholdDB {
			return true
		}
	}
	return false
}

// Contend schedules cb to run when node n wins a transmit opportunity:
// wait for the channel to go idle (as n senses it), then DIFS plus a
// random backoff in [0, cw) slots, re-deferring if the channel got busy
// meanwhile. cw ≤ 0 uses CWMin.
func (m *Medium) Contend(n *Node, cw int, cb func()) {
	if cw <= 0 {
		cw = 16
	}
	slots := m.rng.Intn(cw)
	m.contendAfter(n, slots, cb)
}

func (m *Medium) contendAfter(n *Node, slots int, cb func()) {
	start := m.loop.Now()
	if bu := m.busyUntil(n); bu > start {
		start = bu
	}
	grant := start.Add(phy.DIFS + sim.Duration(slots)*phy.Slot)
	m.loop.At(grant, func() {
		// The node may have been Unregistered (migrated to another
		// segment's medium) while the grant was pending; its channel
		// realizations are no longer ours to touch.
		if !m.registered(n) {
			return
		}
		// The channel may have become busy again; freeze the backoff
		// and resume after it clears (approximating 802.11's counter
		// freeze with a single remaining-slot re-draw).
		if m.busyUntil(n) > m.loop.Now() {
			m.contendAfter(n, m.rng.Intn(4), cb)
			return
		}
		cb()
	})
}

// Transmit puts t on the air now. The caller must not reuse t. Deliveries
// fire at PPDU end for every audible registered node.
func (m *Medium) Transmit(t *Transmission) {
	t.Start = m.loop.Now()
	t.End = t.Start.Add(t.Airtime())
	t.expectsBA = t.Type == FrameData && t.Dst != Broadcast
	t.Tx.transmitting = true
	m.markAudible(t)
	m.active = append(m.active, t)
	m.stats.PPDUs++
	m.stats.MPDUs += len(t.MPDUs)
	if m.onTransmit != nil {
		m.onTransmit(t)
	}

	t.deliverEv = m.loop.At(t.End, func() {
		// The handle must die here: prune may keep t in m.active past
		// this point, and a later Unregister canceling a fired (and
		// possibly recycled) event would hit an unrelated callback.
		t.deliverEv = nil
		t.Tx.transmitting = false
		m.deliverAll(t)
		m.prune()
	})
}

// deliverAll evaluates t at every potential receiver: the nodes marked in
// t's audibility bitmap, then every node registered after the bitmap was
// built. Both walks run in ascending seq order, which is registration
// order — the same order a brute-force scan uses — so index-on and
// index-off runs draw from the RNG identically.
func (m *Medium) deliverAll(t *Transmission) {
	var snrs [rf.NumSubcarriers]float64
	end := len(m.bySeq)
	for w, word := range t.aud {
		for word != 0 {
			m.deliverTo(t, m.bySeq[w*64+bits.TrailingZeros64(word)], &snrs)
			word &= word - 1
		}
	}
	for i := t.audN; i < end; i++ {
		m.deliverTo(t, m.bySeq[i], &snrs)
	}
	if gateCheck {
		m.checkSkippedDeliveries(t, &snrs)
	}
}

// deliverTo evaluates t at n unless n is a hole, the transmitter, or a
// transmit-only node.
func (m *Medium) deliverTo(t *Transmission, n *Node, snrs *[rf.NumSubcarriers]float64) {
	if n == nil || n == t.Tx || n.Recv == nil {
		return
	}
	m.deliverOne(t, n, snrs)
}

// deliverOne evaluates t at a single receiver n.
func (m *Medium) deliverOne(t *Transmission, n *Node, snrs *[rf.NumSubcarriers]float64) {
	if m.hasHeadroom &&
		m.channel.SenseSNRdB(t.Tx, n)+m.headroomDB < detectThresholdDB {
		// Even maximally constructive fading cannot lift this receiver
		// over the detection threshold; skip the per-subcarrier fill.
		return
	}
	if !m.channel.SubcarrierSNRs(t.Tx, n, snrs[:]) {
		return
	}
	if m.interference != nil {
		if iLin := m.interference(n, t); iLin > 0 {
			// Remote-domain co-channel energy raises the noise floor:
			// SINR = SNR − 10·log10(1 + I/N), flat across subcarriers
			// (only the interferer's large-scale budget is known).
			pen := 10 * math.Log10(1+iLin)
			for i := range snrs {
				snrs[i] -= pen
			}
		}
	}
	esnr := csi.EffectiveSNRdB(snrs[:], t.Rate.Modulation)
	if esnr < detectThresholdDB {
		return
	}
	det := Detection{ESNRdB: esnr, SNRsDB: *snrs}
	if m.collided(t, n, esnr) {
		det.Collided = true
		if len(t.MPDUs) > 0 {
			det.OK = m.okBuf(len(t.MPDUs))
			m.stats.MPDULosses += len(t.MPDUs)
		}
		m.stats.Collisions++
		n.Recv.OnReceive(t, det)
		return
	}
	if t.Type == FrameData {
		det.OK = m.okBuf(len(t.MPDUs))
		for i := range t.MPDUs {
			per := phy.PER(t.Rate, esnr, t.MPDUs[i].Pkt.WireLen())
			ok := m.rng.Float64() >= per
			det.OK[i] = ok
			if !ok {
				m.stats.MPDULosses++
			}
		}
	} else {
		// Control/management frames succeed or fail whole.
		per := phy.PER(t.Rate, esnr, frameBytes(t))
		if m.rng.Float64() < per {
			return // undecodable: receiver never sees it
		}
	}
	n.Recv.OnReceive(t, det)
}

// okBuf returns the shared Detection.OK scratch, zeroed, sized k. Valid
// only until the next delivery on this medium.
func (m *Medium) okBuf(k int) []bool {
	if cap(m.okScratch) < k {
		m.okScratch = make([]bool, k)
	}
	s := m.okScratch[:k]
	for i := range s {
		s[i] = false
	}
	return s
}

// collided reports whether an overlapping transmission destroys t at
// receiver n (interferer within captureMarginDB of t's signal). An
// interferer whose audibility bitmap clears n stays at or below
// AudibleFloorDB there, under any detectable frame's capture margin, so
// it is skipped without a channel probe.
func (m *Medium) collided(t *Transmission, n *Node, esnrT float64) bool {
	now := m.loop.Now()
	for _, o := range m.active {
		if o == t || o.Tx == t.Tx || o.Tx == n {
			continue
		}
		if o.End <= t.Start || o.Start >= t.End {
			continue
		}
		if !m.mayHear(o, n, now) {
			if gateCheck {
				m.checkSkippedInterferer(o, n, esnrT)
			}
			continue
		}
		inter := m.channel.SenseSNRdB(o.Tx, n)
		if inter > esnrT-captureMarginDB {
			return true
		}
	}
	return false
}

// prune runs after each delivery and eagerly drops transmissions that can
// no longer matter, keeping the overlap scans O(genuinely concurrent). A
// finished transmission o is still needed only while (a) its NAV
// reservation extends past now (carrier sense), or (b) some still-pending
// transmission p overlaps it (p's delivery-time collision check walks
// m.active, and overlap requires o.End > p.Start). Anything transmitted
// in the future starts at ≥ now ≥ o.End and can never overlap o.
func (m *Medium) prune() {
	now := m.loop.Now()
	var minStart sim.Time
	hasPending := false
	for _, t := range m.active {
		// Undelivered means the delivery event is still queued — which
		// includes transmissions ending at this very instant whose
		// callback just hasn't run yet.
		if t.deliverEv != nil && (!hasPending || t.Start < minStart) {
			minStart = t.Start
			hasPending = true
		}
	}
	out := m.active[:0]
	for _, t := range m.active {
		if t.deliverEv != nil || navEnd(t) > now || (hasPending && t.End > minStart) {
			out = append(out, t)
			continue
		}
		m.releaseTx(t)
	}
	for i := len(out); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = out
}

// frameBytes returns the decodable body size of a non-data frame.
func frameBytes(t *Transmission) int {
	switch t.Type {
	case FrameBlockAck:
		return 32
	case FrameBeacon:
		return beaconBytes
	case FrameMgmt:
		return mgmtFrameBytes
	}
	return 0
}
