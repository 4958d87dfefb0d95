// Command wgtt-serve is the long-running form of the simulator: one
// daemon per process, each hosting a share of a scenario's execution
// domains and exchanging cross-domain envelopes with its peers over a
// serialized trunk transport (unix sockets locally, TCP across hosts).
//
// Every process of a run is started with the identical deployment
// flags (construction is SPMD — each builds the whole network and
// executes only its -partition share) plus its own -proc index:
//
//	wgtt-serve -scenario corridor -partition segs,server \
//	    -peers unix:/tmp/w0.sock,unix:/tmp/w1.sock -proc 0 -report &
//	wgtt-serve -scenario corridor -partition segs,server \
//	    -peers unix:/tmp/w0.sock,unix:/tmp/w1.sock -proc 1 -report
//
// Without -peers the daemon runs the whole scenario in-process — the
// reference a sharded run must reproduce bit for bit.
//
// -http serves the Prometheus exposition of the process's owned
// telemetry shards at /metrics, refreshed at every slice boundary.
// -ckpt journals every exchange; at -checkpoint-at the daemon writes a
// checkpoint sidecar, and -restore resumes from it by replaying the
// journal through the identical slice schedule before rejoining the
// live mesh.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"wgtt"
	"wgtt/internal/core"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
	"wgtt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wgtt-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario = flag.String("scenario", "corridor",
			"scenario to host: an embedded example ("+strings.Join(wgtt.ScenarioNames(), " | ")+
				") or a path to a scenario file (YAML or JSON)")
		proc  = flag.Int("proc", 0, "this process's index into -peers / -partition")
		peers = flag.String("peers", "",
			"comma-separated peer addresses (unix:/path or tcp:host:port), one per process; empty = run the whole scenario in this process")
		partition = flag.String("partition", "segs,server",
			"domain-to-process assignment: comma-separated groups, domains joined by +, e.g. seg0,seg1+seg2,server")
		sliceMs = flag.Int64("slice", 0,
			"advance in slices of this many virtual milliseconds (0 = one slice to the end); slice boundaries refresh -http metrics and are the only checkpoint sites")
		untilMs = flag.Int64("until", 0,
			"stop at this virtual time in milliseconds (0 = the scenario's natural duration)")
		ckptAtMs = flag.Int64("checkpoint-at", 0,
			"write a checkpoint at this virtual millisecond (requires -ckpt; added to the slice schedule)")
		ckptPath = flag.String("ckpt", "",
			"checkpoint path prefix: journals exchanges to PREFIX.journal and writes PREFIX.ckpt at -checkpoint-at")
		restore = flag.Bool("restore", false,
			"resume from -ckpt: replay the journal to the checkpoint, then rejoin the live mesh")
		httpAddr = flag.String("http", "",
			"serve the owned telemetry shards in Prometheus exposition format at this address's /metrics")
		report = flag.Bool("report", false, "print the end-of-run JSON report on stdout")
	)
	cfg, _, err := wgtt.LoadConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, fmt.Sprintf("wgtt-serve[%d] ", *proc), log.Lmicroseconds)

	// The scenario fixes the deployment shape (scheme, segments, domain
	// mode) and its own seed, which an explicit -seed (even -seed 1)
	// overrides on every process; the shared flag surface contributes
	// the datapath knobs every process must agree on. The copies are
	// conditional so an unset flag never stomps a value the scenario
	// file compiled in (e.g. its channel backend).
	var seed int64
	if flagWasSet("seed") {
		seed = cfg.Seed
	}
	opt := wgtt.Options{Seed: seed, Mutate: func(c *wgtt.Config) {
		if cfg.Audibility != "" {
			c.Audibility = cfg.Audibility
		}
		if cfg.ChannelBackend != "" {
			c.ChannelBackend = cfg.ChannelBackend
		}
		if cfg.FlightRecorder != 0 {
			c.FlightRecorder = cfg.FlightRecorder
		}
		if cfg.HandoffBandHiMs != 0 {
			c.HandoffBandLoMs = cfg.HandoffBandLoMs
			c.HandoffBandHiMs = cfg.HandoffBandHiMs
		}
		if cfg.UnownedSpike != 0 {
			c.UnownedSpike = cfg.UnownedSpike
		}
	}}
	sr, err := wgtt.BuildServeScenario(*scenario, opt)
	if err != nil {
		return err
	}
	if err := sr.Cfg.Validate(); err != nil {
		return err
	}

	dur := sr.Dur
	if *untilMs > 0 {
		dur = wgtt.Duration(*untilMs) * wgtt.Millisecond
	}
	slice := wgtt.Duration(*sliceMs) * wgtt.Millisecond
	ckptAt := wgtt.Duration(*ckptAtMs) * wgtt.Millisecond
	if ckptAt > 0 && *ckptPath == "" {
		return fmt.Errorf("-checkpoint-at needs -ckpt")
	}
	if ckptAt >= dur {
		ckptAt = 0
	}
	sched := schedule(dur, slice, ckptAt)

	if *peers == "" {
		if *restore || *ckptPath != "" {
			return fmt.Errorf("-ckpt/-restore checkpoint a partitioned run; they need -peers")
		}
		return runSingle(sr, sched, *scenario, sr.Cfg.Seed, *report, *httpAddr)
	}
	addrs := strings.Split(*peers, ",")
	return runPartitioned(sr, sched, serveParams{
		scenario: *scenario, seed: sr.Cfg.Seed,
		audibility: cfg.Audibility, channel: cfg.ChannelBackend,
		proc: *proc, addrs: addrs, partition: *partition,
		dur: dur, slice: slice, ckptAt: ckptAt,
		ckptPath: *ckptPath, restore: *restore,
		httpAddr: *httpAddr, report: *report,
	}, logger)
}

// flagWasSet reports whether the named flag was explicitly set on the
// command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// schedule lists the RunPartitioned boundaries: slice multiples, the
// checkpoint instant, and the end — sorted, deduplicated. Every
// process derives the identical schedule from the identical flags (the
// config digest guarantees the flags agree).
func schedule(dur, slice, ckptAt wgtt.Duration) []wgtt.Duration {
	var b []wgtt.Duration
	if slice > 0 {
		for t := slice; t < dur; t += slice {
			b = append(b, t)
		}
	}
	if ckptAt > 0 && ckptAt < dur {
		b = append(b, ckptAt)
	}
	b = append(b, dur)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	out := b[:1]
	for _, t := range b[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// httpState backs the daemon's introspection endpoints:
//
//	/metrics       registry exposition, cached at slice boundaries;
//	               ?fresh=1 re-snapshots when the sim is quiescent.
//	               Wall-clock transport/journal counters are appended
//	               live at every scrape (they are atomic).
//	/healthz       round progress and peer connectivity, JSON.
//	/varz          build info, config digest, partition map, JSON.
//	/debug/tracez  the owned flight-recorder shards as Chrome
//	               trace_event JSON (?anomalies=1 for the text dump).
//
// The sim goroutine holds quiesce for the duration of every slice;
// handlers acquire it (waiting up to one slice's wall time, bounded —
// see lockQuiesce) to read fresh simulation state at a boundary, and
// fall back to the cached payload (or 503, for tracez) when a slice
// outlasts the wait.
type httpState struct {
	mu     sync.Mutex
	body   []byte // cached /metrics registry payload
	health healthInfo

	quiesce sync.Mutex

	snap   func() *wgtt.MetricsSnapshot                     // quiescence only
	waits  func() []sim.WaitStat                            // quiescence only (cached into body)
	flight func() ([]wgtt.TraceRecord, []wgtt.TraceAnomaly) // quiescence only
	peers  func() []wire.PeerState                          // safe anytime; nil single-process
	extra  func(w io.Writer)                                // wall-clock prom lines, safe anytime
	varz   []byte
}

// healthInfo is the deterministic half of /healthz, refreshed by the
// sim goroutine at slice boundaries; Peers is filled live at scrape.
type healthInfo struct {
	Proc     int              `json:"proc"`
	NowNs    int64            `json:"now_ns"`
	DurNs    int64            `json:"dur_ns"`
	Progress float64          `json:"progress"`
	Done     bool             `json:"done"`
	Peers    []wire.PeerState `json:"peers,omitempty"`
}

// refresh rebuilds the cached /metrics payload. Called by the sim
// goroutine at slice boundaries (quiescent), so it may evaluate the
// registry snapshot and the coordinator's wait histograms directly.
func (s *httpState) refresh(snap *wgtt.MetricsSnapshot) {
	if s == nil || snap == nil {
		return
	}
	var sb strings.Builder
	if err := snap.Write(&sb, wgtt.MetricsProm); err != nil {
		return
	}
	if s.waits != nil {
		writeWaitStats(&sb, s.waits())
	}
	s.mu.Lock()
	s.body = []byte(sb.String())
	s.mu.Unlock()
}

// setHealth records the run's progress at a slice boundary.
func (s *httpState) setHealth(proc int, now wgtt.Time, dur wgtt.Duration) {
	if s == nil {
		return
	}
	h := healthInfo{Proc: proc, NowNs: int64(now), DurNs: int64(dur)}
	if dur > 0 {
		h.Progress = float64(now) / float64(dur)
	}
	h.Done = h.Progress >= 1
	s.mu.Lock()
	s.health = h
	s.mu.Unlock()
}

// writeWaitStats renders the coordinator's barrier-wait histograms as
// Prometheus lines. Wall-clock state — deliberately outside the
// registry (whose output is byte-compared across process layouts). A
// domain counts only the rounds it was active in: a round that skipped
// it (no event due) adds neither to wgtt_coord_wait_rounds nor to its
// wait sum or buckets, so per-domain round counts differ and fall short
// of the coordinator's round count (see sim.WaitStat). A round's wall
// time includes its opening barrier, so in a partitioned run a wait
// includes the peer exchange: the time spent waiting on the other
// processes. Domains another process executes report zero rounds.
func writeWaitStats(w io.Writer, stats []sim.WaitStat) {
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "# coordinator barrier waits (wall clock)\n")
	for _, st := range stats {
		fmt.Fprintf(w, "wgtt_coord_wait_rounds{domain=%q} %d\n", st.Domain, st.Rounds)
		fmt.Fprintf(w, "wgtt_coord_wait_sum_ns{domain=%q} %d\n", st.Domain, st.SumNs)
		fmt.Fprintf(w, "wgtt_coord_wait_max_ns{domain=%q} %d\n", st.Domain, st.MaxNs)
		cum := int64(0)
		for i, c := range st.Buckets {
			cum += c
			le := "+Inf"
			if i < len(sim.WaitBoundsNs) {
				le = fmt.Sprintf("%d", sim.WaitBoundsNs[i])
			}
			fmt.Fprintf(w, "wgtt_coord_wait_bucket{domain=%q,le=%q} %d\n", st.Domain, le, cum)
		}
	}
}

// writeWireStats renders the transport/journal wall-clock counters.
// Safe from any goroutine: every counter is atomic.
func writeWireStats(w io.Writer, st wire.Stats, journalRecords int64) {
	fmt.Fprintf(w, "# wire transport (wall clock)\n")
	fmt.Fprintf(w, "wgtt_wire_reconnects %d\n", st.Reconnects)
	fmt.Fprintf(w, "wgtt_wire_resends %d\n", st.Resends)
	fmt.Fprintf(w, "wgtt_wire_dedup_drops %d\n", st.DedupDrops)
	fmt.Fprintf(w, "wgtt_wire_bytes_tx %d\n", st.BytesTx)
	fmt.Fprintf(w, "wgtt_wire_bytes_rx %d\n", st.BytesRx)
	fmt.Fprintf(w, "wgtt_wire_exchanges %d\n", st.Exchanges)
	fmt.Fprintf(w, "wgtt_wire_exchange_sum_ns %d\n", st.ExchangeSumNs)
	fmt.Fprintf(w, "wgtt_wire_exchange_max_ns %d\n", st.ExchangeMaxNs)
	cum := int64(0)
	for i, c := range st.ExchangeBuckets {
		cum += c
		le := "+Inf"
		if i < len(sim.WaitBoundsNs) {
			le = fmt.Sprintf("%d", sim.WaitBoundsNs[i])
		}
		fmt.Fprintf(w, "wgtt_wire_exchange_bucket{le=%q} %d\n", le, cum)
	}
	if journalRecords >= 0 {
		fmt.Fprintf(w, "wgtt_journal_records %d\n", journalRecords)
	}
}

// lockQuiesce acquires the quiescence lock, waiting up to bound for
// the sim goroutine to reach a slice boundary. A bare TryLock is
// useless in practice — slices run back-to-back, so the unlocked
// window at each boundary is about a millisecond — but a blocked
// waiter is guaranteed the handoff at the next Unlock once it has
// waited >1 ms (sync.Mutex starvation mode), so a short bounded wait
// reliably lands on a boundary. On timeout the pending acquisition is
// drained in the background: it briefly takes and releases the lock
// at some later boundary, which is harmless.
func (s *httpState) lockQuiesce(bound time.Duration) bool {
	acquired := make(chan struct{})
	go func() {
		s.quiesce.Lock()
		close(acquired)
	}()
	select {
	case <-acquired:
		return true
	case <-time.After(bound):
		go func() {
			<-acquired
			s.quiesce.Unlock()
		}()
		return false
	}
}

// quiesceWait bounds how long a scrape handler waits for a slice
// boundary; Prometheus's default scrape timeout is 10 s, so a second
// leaves plenty of headroom.
const quiesceWait = time.Second

func (s *httpState) serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metricsHandler)
	mux.HandleFunc("/healthz", s.healthzHandler)
	mux.HandleFunc("/varz", s.varzHandler)
	mux.HandleFunc("/debug/tracez", s.tracezHandler)
	go http.Serve(ln, mux) //nolint:errcheck — lives for the process
	return nil
}

func (s *httpState) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("fresh") != "" && s.snap != nil && s.lockQuiesce(quiesceWait) {
		snap := s.snap()
		s.quiesce.Unlock()
		s.refresh(snap)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mu.Lock()
	body := s.body
	s.mu.Unlock()
	w.Write(body)
	if s.extra != nil {
		s.extra(w)
	}
}

func (s *httpState) healthzHandler(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.health
	s.mu.Unlock()
	if s.peers != nil {
		h.Peers = s.peers()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h) //nolint:errcheck — best-effort scrape
}

func (s *httpState) varzHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.varz)
}

func (s *httpState) tracezHandler(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled; start with -flight-recorder N", http.StatusNotFound)
		return
	}
	if !s.lockQuiesce(quiesceWait) {
		http.Error(w, "simulation mid-slice; retry", http.StatusServiceUnavailable)
		return
	}
	recs, anoms := s.flight()
	s.quiesce.Unlock()
	if r.URL.Query().Get("anomalies") != "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.DumpAnomalies(w, recs, anoms, 5*sim.Millisecond) //nolint:errcheck — best-effort scrape
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChrome(w, recs) //nolint:errcheck — best-effort scrape
}

// buildVarz canonicalizes the process's static identity for /varz.
func buildVarz(p map[string]any) []byte {
	if info, ok := debug.ReadBuildInfo(); ok {
		p["go_version"] = info.GoVersion
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				p[strings.ReplaceAll(kv.Key, ".", "_")] = kv.Value
			}
		}
	}
	b, err := json.Marshal(p)
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}

// runSingle hosts the whole scenario in one process: the bit-exact
// reference for any partitioning of the same flags.
func runSingle(sr *wgtt.ServeRun, sched []wgtt.Duration, scenario string, seed int64, report bool, httpAddr string) error {
	var hs *httpState
	dur := sched[len(sched)-1]
	if httpAddr != "" {
		hs = &httpState{
			snap: sr.Net.MetricsSnapshot,
			varz: buildVarz(map[string]any{
				"scenario": scenario, "seed": seed, "proc": 0, "procs": 1,
			}),
		}
		if sr.Cfg.FlightRecorder > 0 {
			hs.flight = func() ([]wgtt.TraceRecord, []wgtt.TraceAnomaly) {
				return sr.Net.FlightRecords(), sr.Net.FlightAnomalies()
			}
		}
		if sr.Net.Coord != nil {
			sr.Net.Coord.EnableWaitStats()
			hs.waits = sr.Net.Coord.WaitStats
		}
		if err := hs.serve(httpAddr); err != nil {
			return err
		}
	}
	for _, t := range sched {
		if hs != nil {
			hs.quiesce.Lock()
		}
		sr.Net.Run(t)
		if hs != nil {
			hs.quiesce.Unlock()
			hs.refresh(sr.Net.MetricsSnapshot())
			hs.setHealth(0, sr.Now(), dur)
		}
	}
	if report {
		return writeReport(os.Stdout, wgtt.ServeReport{
			Proc: 0, Scenario: scenario, Seed: seed,
			NowNs: int64(sr.Now()), Clients: sr.Figures(nil),
			Metrics:   sr.Net.MetricsSnapshot(),
			Trace:     sr.Net.FlightRecords(),
			Anomalies: sr.Net.FlightAnomalies(),
		})
	}
	return nil
}

// serveParams carries the resolved partitioned-run settings.
type serveParams struct {
	scenario, audibility, channel string
	seed                          int64
	proc                          int
	addrs                         []string
	partition                     string
	dur, slice, ckptAt            wgtt.Duration
	ckptPath                      string
	restore                       bool
	httpAddr                      string
	report                        bool
}

// digest canonicalizes everything two processes must agree on for
// their exchange streams to be compatible. The transport handshake and
// the checkpoint sidecar both verify it.
func (p serveParams) digest() [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf(
		"wgtt-serve|1|scenario=%s|seed=%d|aud=%s|chan=%s|part=%s|procs=%d|slice=%d|until=%d|ckpt=%d",
		p.scenario, p.seed, p.audibility, p.channel,
		p.partition, len(p.addrs), int64(p.slice), int64(p.dur), int64(p.ckptAt))))
}

func runPartitioned(sr *wgtt.ServeRun, sched []wgtt.Duration, p serveParams, logger *log.Logger) error {
	part, err := core.ParsePartition(p.partition)
	if err != nil {
		return err
	}
	if len(part) != len(p.addrs) {
		return fmt.Errorf("partition has %d process groups but -peers lists %d addresses", len(part), len(p.addrs))
	}
	if p.proc < 0 || p.proc >= len(p.addrs) {
		return fmt.Errorf("-proc %d out of range for %d processes", p.proc, len(p.addrs))
	}
	procs, err := part.Resolve(sr.Net)
	if err != nil {
		return err
	}
	owned := procs[p.proc]
	digest := p.digest()

	// Restore first: replay the journaled exchanges through the same
	// schedule prefix the checkpointing run executed.
	var (
		journal  *wire.Journal
		startSeq int64
		resumeAt wgtt.Duration
	)
	journalPath := p.ckptPath + ".journal"
	sidecarPath := p.ckptPath + ".ckpt"
	if p.restore {
		if p.ckptPath == "" {
			return fmt.Errorf("-restore needs -ckpt")
		}
		ck, err := wire.ReadCheckpoint(sidecarPath, digest)
		if err != nil {
			return err
		}
		recs, offset, err := wire.ReadJournal(journalPath, digest, ck.Exchanges)
		if err != nil {
			return err
		}
		if offset != ck.Offset {
			return fmt.Errorf("journal %s: %d records end at byte %d, checkpoint says %d",
				journalPath, ck.Exchanges, offset, ck.Offset)
		}
		replay := wire.NewReplayBus(recs)
		for _, t := range sched {
			if int64(t) > ck.At {
				break
			}
			if err := sr.Net.RunPartitioned(t, owned, replay); err != nil {
				return fmt.Errorf("replay to %v: %w", t, err)
			}
			resumeAt = t
		}
		if int64(resumeAt) != ck.At {
			return fmt.Errorf("checkpoint at %d is not on the slice schedule", ck.At)
		}
		if rem := replay.Remaining(); rem != 0 {
			return fmt.Errorf("replay stopped %d journal records short of the checkpoint", rem)
		}
		startSeq = ck.Exchanges
		journal, err = wire.OpenJournalAppend(journalPath, ck.Offset)
		if err != nil {
			return err
		}
		logger.Printf("restored to t=%v from %s (%d exchanges replayed)", resumeAt, p.ckptPath, ck.Exchanges)
	} else if p.ckptPath != "" {
		journal, err = wire.CreateJournal(journalPath, digest)
		if err != nil {
			return err
		}
	}
	if journal != nil {
		defer journal.Close()
	}

	tp, err := wire.New(wire.Config{
		Self: p.proc, Addrs: p.addrs, Digest: digest,
		StartSeq: startSeq, Logf: logger.Printf,
	})
	if err != nil {
		return err
	}
	defer tp.Close()
	var bus sim.PeerBus = tp
	if journal != nil {
		bus = &wire.JournalBus{Bus: tp, J: journal}
	}

	var hs *httpState
	if p.httpAddr != "" {
		var groups []string
		for pi, g := range part {
			groups = append(groups, fmt.Sprintf("proc%d=%s", pi, strings.Join(g, "+")))
		}
		hs = &httpState{
			snap:  func() *wgtt.MetricsSnapshot { return sr.Net.MetricsSnapshotOwned(owned) },
			peers: tp.PeerStates,
			extra: func(w io.Writer) {
				jr := int64(-1)
				if journal != nil {
					jr = journal.Records()
				}
				writeWireStats(w, tp.Stats(), jr)
			},
			varz: buildVarz(map[string]any{
				"scenario": p.scenario, "seed": p.seed, "proc": p.proc,
				"procs": len(p.addrs), "partition": strings.Join(groups, ","),
				"digest": wire.DigestHex(digest), "peers": p.addrs,
			}),
		}
		if sr.Cfg.FlightRecorder > 0 {
			hs.flight = func() ([]wgtt.TraceRecord, []wgtt.TraceAnomaly) {
				return sr.Net.FlightRecords(), sr.Net.FlightAnomalies()
			}
		}
		sr.Net.Coord.EnableWaitStats()
		hs.waits = sr.Net.Coord.WaitStats
		if err := hs.serve(p.httpAddr); err != nil {
			return err
		}
	}

	// Stalled-round watchdog: a round that makes no exchange progress
	// for two consecutive intervals while the sim goroutine is blocked
	// mid-slice means a peer died or the mesh wedged. Wall clock only —
	// it observes, logs, and never touches simulation state.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go watchStall(tp, logger, stopWatch)

	for _, t := range sched {
		if t <= resumeAt {
			continue
		}
		if hs != nil {
			hs.quiesce.Lock()
		}
		err := sr.Net.RunPartitioned(t, owned, bus)
		if hs != nil {
			hs.quiesce.Unlock()
		}
		if err != nil {
			return err
		}
		hs.refresh(sr.Net.MetricsSnapshotOwned(owned))
		hs.setHealth(p.proc, sr.Now(), p.dur)
		if t == p.ckptAt && !p.restore {
			off, err := journal.Offset()
			if err != nil {
				return err
			}
			if err := journal.Sync(); err != nil {
				return err
			}
			ck := wire.Checkpoint{
				Exchanges: sr.Net.Coord.Exchanges(), At: int64(sr.Now()),
				Offset: off, Digest: wire.DigestHex(digest),
			}
			if err := wire.WriteCheckpoint(sidecarPath, ck); err != nil {
				return err
			}
			logger.Printf("checkpoint at t=%v: %d exchanges, journal byte %d", t, ck.Exchanges, off)
		}
	}

	if p.report {
		return writeReport(os.Stdout, wgtt.ServeReport{
			Proc: p.proc, Scenario: p.scenario, Seed: p.seed,
			NowNs: int64(sr.Now()), Clients: sr.Figures(owned),
			Metrics:   sr.Net.MetricsSnapshotOwned(owned),
			Trace:     sr.Net.FlightRecords(),
			Anomalies: sr.Net.FlightAnomalies(),
		})
	}
	return nil
}

// stallInterval paces the stalled-round watchdog.
const stallInterval = 10 * time.Second

// watchStall logs when the exchange sequence stops advancing for two
// consecutive intervals — the signature of a dead peer or a wedged
// mesh. It reads only the transport's atomic counters, so it is safe
// beside the running sim goroutine and cannot perturb the schedule.
func watchStall(tp *wire.Transport, logger *log.Logger, stop <-chan struct{}) {
	tick := time.NewTicker(stallInterval)
	defer tick.Stop()
	last, stale := int64(-1), 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		ex := tp.Stats().Exchanges
		if ex == last {
			stale++
			if stale >= 2 {
				logger.Printf("stalled round: no exchange progress for %v (exchanges=%d); check peer health", time.Duration(stale)*stallInterval, ex)
			}
		} else {
			last, stale = ex, 0
		}
	}
}

func writeReport(w *os.File, rep wgtt.ServeReport) error {
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}
