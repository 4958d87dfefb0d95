package core

import (
	"fmt"

	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// This file wires the telemetry registry (Config.Telemetry) into both
// construction paths. On the single-loop path every scope is a view of
// the registry's root shard; in domain mode each segment gets its own
// shard, touched only by that domain's goroutine, and the root shard
// belongs to the wired-server domain. Snapshot merges the shards at
// quiescence (the per-round coordinator barrier is the happens-before
// edge that makes the plain counters visible).

// initTelemetrySingle builds the registry for the single-loop path:
// every segment scope shares the root shard, sampled by one 100 ms
// ticker on the shared loop.
func (n *Network) initTelemetrySingle(loop *sim.Loop, numSegs int) {
	n.tel = telemetry.NewRegistry()
	n.telRoot = n.tel.Scope("server")
	for i := 0; i < numSegs; i++ {
		n.telSegs = append(n.telSegs, n.tel.Scope(fmt.Sprintf("seg%d", i)))
	}
	n.loopGauges(n.telRoot, loop)
	n.serverGauges()
	scheduleSampler(loop, n.telRoot)
}

// initTelemetryDomains builds the registry for domain mode: one shard
// per segment plus the root shard for the server domain, each with its
// own sampler on its own loop. All samplers tick on the same absolute
// 100 ms grid, so in-process and partitioned runs see identical event
// schedules and stay bit-identical.
func (n *Network) initTelemetryDomains(coord *sim.Coordinator, server *sim.Domain) {
	n.tel = telemetry.NewRegistry()
	n.telRoot = n.tel.Scope("server")
	for i, sd := range n.segs {
		sc := n.tel.NewShard(fmt.Sprintf("seg%d", i))
		n.telSegs = append(n.telSegs, sc)
		n.loopGauges(sc, sd.dom.Loop)
		n.domainIntrospection(sc, coord, sd.dom)
		scheduleSampler(sd.dom.Loop, sc)
	}
	n.loopGauges(n.telRoot, server.Loop)
	n.serverGauges()
	n.telRoot.GaugeFunc("coord_rounds", func() float64 { return float64(coord.Rounds()) })
	n.domainIntrospection(n.telRoot, coord, server)
	scheduleSampler(server.Loop, n.telRoot)
}

// domainIntrospection exposes the sync-round view from inside one
// domain: the depth of its outgoing cross-domain envelope queue and how
// much lookahead slack its local schedule has, sampled on the 100 ms
// series grid. Both read only virtual-schedule state — never wall
// clock — so in-process and partitioned runs sample identical values
// and the merged snapshots stay bit-identical.
func (n *Network) domainIntrospection(sc telemetry.Scope, coord *sim.Coordinator, dom *sim.Domain) {
	loop := dom.Loop
	la := coord.Lookahead()
	sc.Series("envelope_queue_100ms", func() float64 {
		return float64(coord.PendingEnvelopesFrom(dom))
	})
	// Slack = how long the domain could idle before its next local
	// event, capped at the sync horizon (a domain with no work for the
	// rest of the round reports the full lookahead).
	sc.Series("lookahead_slack_100ms", func() float64 {
		slack := la
		if next, ok := loop.NextEventAt(); ok {
			if d := next.Sub(loop.Now()); d < slack {
				slack = d
			}
		}
		return float64(slack) / float64(sim.Millisecond)
	})
}

// loopGauges exposes one event loop's occupancy under sc.
func (n *Network) loopGauges(sc telemetry.Scope, loop *sim.Loop) {
	sc.GaugeFunc("loop_events", func() float64 { return float64(loop.Executed()) })
	sc.GaugeFunc("loop_pending", func() float64 { return float64(loop.Pending()) })
	sc.Series("loop_events_100ms", func() float64 { return float64(loop.Executed()) })
}

// serverGauges exposes the wired server's cross-segment state.
func (n *Network) serverGauges() {
	n.telRoot.GaugeFunc("clients", func() float64 { return float64(len(n.Clients)) })
	n.telRoot.GaugeFunc("server_duplicates", func() float64 { return float64(n.ServerDuplicates) })
	n.unownedGauge(n.telRoot)
}

// clientGauges exposes one client's receive-side state under its home
// segment's scope. GaugeFuncs are evaluated only at Snapshot time
// (quiescent), so a client that later migrates to another domain cannot
// race its old segment's sampler.
func (n *Network) clientGauges(seg, id int) {
	cl := n.Clients[id].Client
	sc := n.segTel(seg).Sub(fmt.Sprintf("client%d", id))
	sc.GaugeFunc("rx_mpdus", func() float64 { return float64(cl.RxMPDUs) })
	sc.GaugeFunc("rx_bytes", func() float64 { return float64(cl.RxBytes) })
	sc.GaugeFunc("rx_dups", func() float64 { return float64(cl.RxDuplicates) })
	sc.GaugeFunc("uplink_ppdus", func() float64 { return float64(cl.UplinkPPDUs) })
}

// scheduleSampler arms a domain's 100 ms series sampler. The ticks are
// read-only (they copy current values into the ring buffers), so they
// perturb neither the RNG streams nor any other event's ordering.
func scheduleSampler(loop *sim.Loop, sc telemetry.Scope) {
	var tick func()
	tick = func() {
		sc.Sample(loop.Now())
		loop.After(telemetry.SamplePeriod, tick)
	}
	loop.After(telemetry.SamplePeriod, tick)
}

// segTel returns segment i's telemetry scope; the zero (disabled) scope
// when Config.Telemetry is off.
func (n *Network) segTel(i int) telemetry.Scope {
	if n.tel == nil {
		return telemetry.Scope{}
	}
	return n.telSegs[i]
}

// TelemetryScope exposes a root-shard scope under prefix for callers
// that attach their own metrics (workload endpoints at the wired
// server). The zero scope when telemetry is disabled.
func (n *Network) TelemetryScope(prefix string) telemetry.Scope {
	if n.tel == nil {
		return telemetry.Scope{}
	}
	return n.tel.Scope(prefix)
}

// TelemetryEnabled reports whether the network records metrics.
func (n *Network) TelemetryEnabled() bool { return n.tel != nil }

// MetricsSnapshot exports every metric at the current virtual time.
// Call it only while the simulation is quiescent (between Run calls);
// returns nil when Config.Telemetry is off.
func (n *Network) MetricsSnapshot() *telemetry.Snapshot {
	if n.tel == nil {
		return nil
	}
	at := n.Loop.Now()
	if n.Coord != nil {
		at = n.Coord.Now()
	}
	return n.tel.Snapshot(at)
}
