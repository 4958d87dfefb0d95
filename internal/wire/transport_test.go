package wire

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wgtt/internal/deploy"
	"wgtt/internal/sim"
)

var testDigest = func() [32]byte {
	var d [32]byte
	copy(d[:], "wire-transport-test")
	return d
}()

func udsAddrs(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("p%d.sock", i))
	}
	return addrs
}

// startMesh brings up n transports over Unix sockets in-process.
func startMesh(t *testing.T, n int, mutate func(i int, c *Config)) []*Transport {
	t.Helper()
	addrs := udsAddrs(t, n)
	ts := make([]*Transport, n)
	for i := range ts {
		cfg := Config{
			Self:            i,
			Addrs:           addrs,
			Digest:          testDigest,
			ExchangeTimeout: 20 * time.Second,
			Logf:            t.Logf,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		tr, err := New(cfg)
		if err != nil {
			t.Fatalf("New(proc %d): %v", i, err)
		}
		t.Cleanup(func() { tr.Close() })
		ts[i] = tr
	}
	return ts
}

// testRound is the deterministic payload proc sends for exchange seq;
// Boxes[0].Box encodes the sender so receivers can verify provenance.
func testRound(proc int, seq int64) sim.RoundMsg {
	return sim.RoundMsg{
		Seq:     seq,
		Next:    sim.Time(seq*100 + int64(proc)),
		HasNext: true,
		Boxes: []sim.BoxBatch{{Box: proc, Envelopes: []sim.WireEnvelope{{
			At:   sim.Time(seq),
			Kind: 9,
			Data: []byte(fmt.Sprintf("proc %d round %d", proc, seq)),
		}}}},
	}
}

// runExchanges drives every transport through rounds lockstep exchanges
// and verifies each receives every peer's exact payload, in process-
// index order, with no loss, duplication, or reordering.
func runExchanges(t *testing.T, ts []*Transport, rounds int64) {
	t.Helper()
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for p := range ts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := int64(0); seq < rounds; seq++ {
				out, err := ts[p].Exchange(testRound(p, seq))
				if err != nil {
					errs[p] = fmt.Errorf("exchange %d: %w", seq, err)
					return
				}
				var wantProcs []int
				for q := range ts {
					if q != p {
						wantProcs = append(wantProcs, q)
					}
				}
				if len(out) != len(wantProcs) {
					errs[p] = fmt.Errorf("exchange %d: %d peer messages, want %d", seq, len(out), len(wantProcs))
					return
				}
				for k, m := range out {
					want := testRound(wantProcs[k], seq)
					if !bytes.Equal(encodeRound(m), encodeRound(want)) {
						errs[p] = fmt.Errorf("exchange %d: peer slot %d: got %+v, want %+v", seq, k, m, want)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Errorf("proc %d: %v", p, err)
		}
	}
}

func TestTransportExchange(t *testing.T) {
	runExchanges(t, startMesh(t, 3, nil), 50)
}

// faultSeqsFromSchedule maps a deploy.FaultSchedule's outage windows
// onto exchange sequence numbers: with conservative sync, exchange seq
// happens at virtual time ~seq*lookahead, so a trunk blackout window
// translates to severing the transport during the matching rounds.
func faultSeqsFromSchedule(f deploy.FaultSchedule, lookahead sim.Duration) func(int64) bool {
	return func(seq int64) bool {
		at := time.Duration(seq) * lookahead
		for _, o := range f.Outages {
			if at >= o.Start && at < o.End {
				return true
			}
		}
		return false
	}
}

// TestTransportReconnectMidRound severs the connection mid-run — after
// round frames are already on the wire — at sequence numbers derived
// from a deploy.FaultSchedule, and requires the exchange stream to
// come through lossless anyway via reconnect, resend, and dedup.
func TestTransportReconnectMidRound(t *testing.T) {
	const lookahead = 200 * time.Microsecond // deploy.Trunk default PropDelay
	sched := deploy.FaultSchedule{Outages: []deploy.Outage{
		{A: -1, B: -1, Start: 1 * time.Millisecond, End: 1400 * time.Microsecond},
		{A: -1, B: -1, Start: 5 * time.Millisecond, End: 5600 * time.Microsecond},
	}}
	if err := sched.Validate(0); err != nil {
		t.Fatal(err)
	}
	var kills atomic.Int64
	match := faultSeqsFromSchedule(sched, lookahead)
	ts := startMesh(t, 2, func(i int, c *Config) {
		if i == 1 { // the dialing side severs; it must also redial
			c.FaultSeqs = func(seq int64) bool {
				if !match(seq) {
					return false
				}
				kills.Add(1)
				return true
			}
		}
	})
	runExchanges(t, ts, 40) // rounds 0..39 span both outage windows
	if got := kills.Load(); got == 0 {
		t.Fatal("fault hook never fired; the reconnect path was not exercised")
	} else {
		t.Logf("connection severed %d times", got)
	}
}

// TestPeerDeliverKeepsRoundOrder pins per-peer delivery order when two
// readers overlap, as after a redial: the old connection's reader has
// accepted round 5 but not yet queued it when the new connection's
// reader delivers round 6. Round 6 must wait for round 5 rather than
// reach the inbox first (which Exchange reports as "peer 1 sent round 6
// during exchange 5"). The hook parks the first reader in exactly that
// window and gives the second one ample time to overtake it.
func TestPeerDeliverKeepsRoundOrder(t *testing.T) {
	tr := &Transport{closed: make(chan struct{})}
	p := &peer{t: tr, idx: 1, sent: map[int64][]byte{}, nextRecv: 5, inbox: make(chan sim.RoundMsg, 4)}
	secondDone := make(chan struct{})
	p.accepted = func(seq int64) {
		if seq != 5 {
			return
		}
		go func() {
			defer close(secondDone)
			p.deliver(testRound(1, 6))
		}()
		select {
		case <-secondDone:
		case <-time.After(200 * time.Millisecond):
		}
	}
	p.deliver(testRound(1, 5))
	<-secondDone
	first, second := <-p.inbox, <-p.inbox
	if first.Seq != 5 || second.Seq != 6 {
		t.Fatalf("inbox order: round %d then %d, want 5 then 6", first.Seq, second.Seq)
	}
}

func TestTransportDigestMismatch(t *testing.T) {
	var other [32]byte
	copy(other[:], "some-other-config")
	ts := startMesh(t, 2, func(i int, c *Config) {
		c.ExchangeTimeout = 5 * time.Second
		if i == 1 {
			c.Digest = other
		}
	})
	_, err := ts[0].Exchange(testRound(0, 0))
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("listener accepted a peer with a different config digest: err=%v", err)
	}
}

func TestTransportLateStartPeer(t *testing.T) {
	// The dialer's first exchanges happen before the listener exists:
	// frames are retained and must be delivered on the first handshake.
	addrs := udsAddrs(t, 2)
	mk := func(self int) *Transport {
		tr, err := New(Config{Self: self, Addrs: addrs, Digest: testDigest,
			ExchangeTimeout: 20 * time.Second, Logf: t.Logf})
		if err != nil {
			t.Fatalf("New(proc %d): %v", self, err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	t1 := mk(1) // dialer comes up first; proc 0's socket doesn't exist yet
	done := make(chan error, 1)
	go func() {
		out, err := t1.Exchange(testRound(1, 0))
		if err == nil && len(out) != 1 {
			err = fmt.Errorf("got %d peer messages, want 1", len(out))
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let a few dial attempts fail
	t0 := mk(0)
	if _, err := t0.Exchange(testRound(0, 0)); err != nil {
		t.Fatalf("late listener exchange: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("early dialer exchange: %v", err)
	}
}

func TestSplitAddr(t *testing.T) {
	if net, a, err := splitAddr("unix:/tmp/x.sock"); err != nil || net != "unix" || a != "/tmp/x.sock" {
		t.Fatalf("unix: got (%q, %q, %v)", net, a, err)
	}
	if net, a, err := splitAddr("tcp:127.0.0.1:7100"); err != nil || net != "tcp" || a != "127.0.0.1:7100" {
		t.Fatalf("tcp: got (%q, %q, %v)", net, a, err)
	}
	if _, _, err := splitAddr("quic:nope"); err == nil {
		t.Fatal("splitAddr accepted an unknown scheme")
	}
}
