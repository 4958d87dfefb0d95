package core

import (
	"math"

	"wgtt/internal/channel"
	"wgtt/internal/mac"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// The audibility index is the large-deployment fast path of the shared
// medium: the medium asks it once per PPDU, as the PPDU goes on air, for
// the set of nodes that could *plausibly* hear the transmitter, and
// every later channel probe of that PPDU — delivery, carrier sense,
// capture — skips the nodes left out. Soundness rule: the index may
// over-mark freely (a false positive just re-runs the medium's own
// threshold tests, which reject it exactly like the brute-force scan
// would), but it must never under-mark. Every node must be marked whose
// large-scale SNR could reach the floor — the lower of
// mac.AudibleFloorDB (capture: an interferer at or under it never
// collides a detectable frame) and the detect threshold minus the
// constructive-fading headroom — at any instant of the bitmap's
// lifetime, mac.AudibilitySpan from the PPDU's start. Under that rule,
// index-on and index-off runs are bit-identical: both visit the same
// detecting receivers in the same (registration) order, sense and
// collide identically, and draw from the RNG identically.
//
// Lifetime: bucket boxes are as much as audRefreshInterval stale when a
// bitmap is built and must still hold mac.AudibilitySpan later, so the
// audSlopM padding covers clients slower than
// audSlopM / (audRefreshInterval + mac.AudibilitySpan) = 5 m / 13 ms ≈
// 385 m/s. A client transmitter is padded by the same slop (its own
// motion over the span); APs do not move.
const (
	// audRefreshInterval is how stale the client bucket geometry may
	// get before MarkAudible rebuilds it.
	audRefreshInterval = 5 * sim.Millisecond
	// audSlopM pads every bucket's bounding box, and a client
	// transmitter's position, against client motion over the bitmap's
	// lifetime (see above for the speed bound it implies).
	audSlopM = 5.0
	// audBucketM is the x-extent of one client bucket.
	audBucketM = 32.0
	// audFlatMarginDB guards the client↔client detect bound against the
	// ESNR table's interpolation error (≪ 0.5 dB on a flat channel).
	audFlatMarginDB = 0.5
)

// audAP is one resolved access point: static position (the antenna
// pattern lives in the channel backend).
type audAP struct {
	node *mac.Node
	pos  rf.Position
}

// audBucket groups clients by road position; the box bounds the members'
// positions as of the last refresh, already expanded by audSlopM.
type audBucket struct {
	nodes                  []*mac.Node
	minX, maxX, minY, maxY float64
}

// audIndex implements mac.AudibilityIndex over the deployment geometry of
// one radio domain (the whole network on the single-loop path, one
// segment's medium partition in domain mode). Node kinds resolve lazily
// through Network.nodeKind because kinds are recorded just after mac
// registration; a node whose kind never resolves is simply always marked.
type audIndex struct {
	n    *Network
	loop *sim.Loop

	// entries holds the registered nodes in registration order.
	entries []*mac.Node

	// Resolved views, rebuilt by refresh().
	aps     []audAP
	buckets map[int]*audBucket
	unknown []*mac.Node
	free    []*audBucket

	fresh       bool
	refreshedAt sim.Time

	// fadeFloorDB is the large-scale SNR bound at which a faded
	// AP↔client path must be marked: detect minus the channel's
	// constructive-fading headroom, or the capture floor if lower.
	// flatFloorDB is the same for the unfaded client↔client path.
	fadeFloorDB, flatFloorDB float64
}

func newAudIndex(n *Network, loop *sim.Loop) *audIndex {
	return &audIndex{
		n:           n,
		loop:        loop,
		buckets:     make(map[int]*audBucket),
		fadeFloorDB: math.Min(mac.AudibleFloorDB, mac.DetectThresholdDB-n.model.DetectHeadroomDB()),
		flatFloorDB: math.Min(mac.AudibleFloorDB, mac.DetectThresholdDB-audFlatMarginDB),
	}
}

// Register implements mac.AudibilityIndex.
func (ix *audIndex) Register(n *mac.Node) {
	ix.entries = append(ix.entries, n)
	ix.fresh = false
}

// Unregister implements mac.AudibilityIndex.
func (ix *audIndex) Unregister(n *mac.Node) {
	out := ix.entries[:0]
	for _, x := range ix.entries {
		if x != n {
			out = append(out, x)
		}
	}
	for i := len(out); i < len(ix.entries); i++ {
		ix.entries[i] = nil
	}
	ix.entries = out
	ix.fresh = false
}

// refresh rebuilds the resolved AP list and the client buckets from
// current positions.
func (ix *audIndex) refresh() {
	ix.aps = ix.aps[:0]
	ix.unknown = ix.unknown[:0]
	for k, b := range ix.buckets {
		b.nodes = b.nodes[:0]
		ix.free = append(ix.free, b)
		delete(ix.buckets, k)
	}
	for _, node := range ix.entries {
		ref, ok := ix.n.nodeKind[node]
		switch {
		case !ok:
			ix.unknown = append(ix.unknown, node)
		case ref.isAP:
			ix.aps = append(ix.aps, audAP{node: node, pos: node.Pos()})
		default:
			pos := node.Pos()
			key := int(math.Floor(pos.X / audBucketM))
			b := ix.buckets[key]
			if b == nil {
				if k := len(ix.free); k > 0 {
					b = ix.free[k-1]
					ix.free[k-1] = nil
					ix.free = ix.free[:k-1]
				} else {
					b = &audBucket{}
				}
				b.minX, b.maxX = pos.X, pos.X
				b.minY, b.maxY = pos.Y, pos.Y
				ix.buckets[key] = b
			}
			b.nodes = append(b.nodes, node)
			b.minX = math.Min(b.minX, pos.X)
			b.maxX = math.Max(b.maxX, pos.X)
			b.minY = math.Min(b.minY, pos.Y)
			b.maxY = math.Max(b.maxY, pos.Y)
		}
	}
	for _, b := range ix.buckets {
		b.minX -= audSlopM
		b.maxX += audSlopM
		b.minY -= audSlopM
		b.maxY += audSlopM
	}
	ix.fresh = true
	ix.refreshedAt = ix.loop.Now()
}

// MarkAudible implements mac.AudibilityIndex.
func (ix *audIndex) MarkAudible(tx *mac.Node, bitmap []uint64) {
	if !ix.fresh || ix.loop.Now() > ix.refreshedAt.Add(audRefreshInterval) {
		ix.refresh()
	}
	// Unknown-kind nodes can be anything anywhere: always candidates.
	for _, n := range ix.unknown {
		markBit(bitmap, n)
	}
	ref, ok := ix.n.nodeKind[tx]
	if !ok {
		// Unknown transmitter: no geometric bound applies.
		for _, n := range ix.entries {
			markBit(bitmap, n)
		}
		return
	}
	if ref.isAP {
		ix.markFromAP(tx, bitmap)
	} else {
		ix.markFromClient(tx, bitmap)
	}
}

// markFromAP marks every plausible receiver of an AP transmission.
func (ix *audIndex) markFromAP(tx *mac.Node, bitmap []uint64) {
	pos := tx.Pos()
	model := ix.n.model
	// AP → AP sensing is a hard range cutoff in netChannel; beyond it
	// the flat apAPOutOfRangeSNRdB channel sits under the capture floor
	// and fails SubcarrierSNRs outright.
	for _, ap := range ix.aps {
		if pos.Distance(ap.pos) <= ix.n.Cfg.APAPSenseRangeM {
			markBit(bitmap, ap.node)
		}
	}
	// AP → client: bound the large-scale SNR over the bucket box.
	for _, b := range ix.buckets {
		if model.MaxSNRAPToBoxDB(pos, boxOf(b)) >= ix.fadeFloorDB {
			for _, n := range b.nodes {
				markBit(bitmap, n)
			}
		}
	}
}

// markFromClient marks every plausible receiver of a client transmission.
// The transmitter moves over the bitmap's lifetime, so its position is
// padded by audSlopM like the receiving buckets.
func (ix *audIndex) markFromClient(tx *mac.Node, bitmap []uint64) {
	pos := tx.Pos()
	model := ix.n.model
	// Client → AP: the reciprocal of the downlink budget from the AP to
	// the transmitter's slop box.
	txBox := channel.Box{MinX: pos.X - audSlopM, MaxX: pos.X + audSlopM,
		MinY: pos.Y - audSlopM, MaxY: pos.Y + audSlopM}
	for _, ap := range ix.aps {
		if model.MaxSNRAPToBoxDB(ap.pos, txBox) >= ix.fadeFloorDB {
			markBit(bitmap, ap.node)
		}
	}
	// Client → client: the flat vehicle-to-vehicle budget at the nearest
	// point of the bucket, less the transmitter's own slop; no fading,
	// so the floor carries no headroom term.
	for _, b := range ix.buckets {
		d := math.Max(0, boxDistance(pos, b)-audSlopM)
		if model.ClientClientSNRdB(d) >= ix.flatFloorDB {
			for _, n := range b.nodes {
				markBit(bitmap, n)
			}
		}
	}
}

// boxOf converts a bucket's (already slop-expanded) bounds to the
// backend's box geometry.
func boxOf(b *audBucket) channel.Box {
	return channel.Box{MinX: b.minX, MaxX: b.maxX, MinY: b.minY, MaxY: b.maxY}
}

// markBit sets the node's seq bit in the medium's candidate bitmap.
func markBit(bitmap []uint64, n *mac.Node) {
	seq := n.Seq()
	if w := seq >> 6; w < len(bitmap) {
		bitmap[w] |= 1 << (seq & 63)
	}
}

// boxDistance returns the distance from p to the nearest point of the
// bucket's (already slop-expanded) box; zero when p is inside.
func boxDistance(p rf.Position, b *audBucket) float64 {
	dx := math.Max(0, math.Max(b.minX-p.X, p.X-b.maxX))
	dy := math.Max(0, math.Max(b.minY-p.Y, p.Y-b.maxY))
	return math.Hypot(dx, dy)
}
