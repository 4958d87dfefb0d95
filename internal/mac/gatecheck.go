package mac

import (
	"fmt"

	"wgtt/internal/csi"
	"wgtt/internal/rf"
)

// The checks below back the audibility gate under -tags simcheck: each
// re-runs a channel probe the gate skipped and panics if the probe would
// have changed what the medium does. They draw no randomness, so a
// simcheck run simulates exactly what an untagged run does.

// checkSkippedSense panics if n would sense t busy.
func (m *Medium) checkSkippedSense(t *Transmission, n *Node) {
	if snr := m.channel.SenseSNRdB(t.Tx, n); snr >= senseThresholdDB {
		m.gatePanic("carrier sense", t, n, snr, senseThresholdDB)
	}
}

// checkSkippedInterferer panics if o would collide a frame received at n
// with effective SNR esnrT.
func (m *Medium) checkSkippedInterferer(o *Transmission, n *Node, esnrT float64) {
	if snr := m.channel.SenseSNRdB(o.Tx, n); snr > esnrT-captureMarginDB {
		m.gatePanic("capture", o, n, snr, esnrT-captureMarginDB)
	}
}

// checkSkippedDeliveries panics if any receiver t's bitmap cleared would
// have detected t: the same large-scale and per-subcarrier tests
// deliverOne applies, without the remote-interference penalty (which
// only lowers the SNR).
func (m *Medium) checkSkippedDeliveries(t *Transmission, snrs *[rf.NumSubcarriers]float64) {
	for i := 0; i < t.audN; i++ {
		n := m.bySeq[i]
		if n == nil || n == t.Tx || n.Recv == nil || t.aud[i>>6]&(1<<(i&63)) != 0 {
			continue
		}
		if m.hasHeadroom && m.channel.SenseSNRdB(t.Tx, n)+m.headroomDB < detectThresholdDB {
			continue
		}
		if !m.channel.SubcarrierSNRs(t.Tx, n, snrs[:]) {
			continue
		}
		if esnr := csi.EffectiveSNRdB(snrs[:], t.Rate.Modulation); esnr >= detectThresholdDB {
			m.gatePanic("detection", t, n, esnr, detectThresholdDB)
		}
	}
}

func (m *Medium) gatePanic(probe string, t *Transmission, n *Node, snr, threshold float64) {
	panic(fmt.Sprintf("mac: audibility gate skipped %s %s→%s at %v (PPDU %v–%v): %.2f dB crosses %.2f dB",
		probe, t.Tx.Name, n.Name, m.loop.Now(), t.Start, t.End, snr, threshold))
}
