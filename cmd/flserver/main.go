// Command flserver runs a GradSec federated-learning server over TCP:
// it waits for -clients connections, performs TEE-aware selection (open
// enrolment: device keys are accepted on first use in this demo binary),
// and drives -rounds FL cycles of the LeNet-5-mini model with the given
// protection plan.
//
// With -async the session is asynchronous buffered federation
// (FedBuff-style): clients train and push on their own cadence, the
// server folds updates staleness-discounted into a buffer and applies
// it every -goal-updates folds; -rounds counts those applications.
//
// With -journal the server writes a checksummed round journal; after a
// crash, restarting with -recover replays the committed rounds and
// resumes the session bit-identically with the reconnecting fleet.
// -aggregation trimmed-mean/median swaps FedAvg for a Byzantine-robust
// aggregator (see -trim for the trimmed-mean tail fraction).
//
// With -edges N the binary runs as a hierarchical aggregation root
// instead: it waits for N fledge edge-aggregator connections, broadcasts
// the model once per round, and folds one partial aggregate per shard —
// fan-in O(shards) instead of O(fleet). Clients then connect to the
// fledge processes, not to this one.
//
// The flags become one fl.ServerConfig, checked once by its Validate
// before any enclave, journal or listener exists: a combination the
// engine cannot run (-secagg with a robust -aggregation, -async with
// -secagg or -edges, -mask-degree -1, -secagg-scale 60) is a usage
// error, exit status 2. The session is fl.Server.Run, which paces -async
// by configuration and resumes a -recover'ed journal itself.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7443", "listen address")
	clients := flag.Int("clients", 2, "clients to wait for")
	rounds := flag.Int("rounds", 3, "FL cycles")
	layers := flag.String("protect", "2,5", "1-based protected layers (static plan)")
	minClients := flag.Int("min-clients", 1, "responders required per round")
	sampleFraction := flag.Float64("sample-fraction", 0, "fraction of clients sampled per round (0 = all)")
	sampleCount := flag.Int("sample-count", 0, "clients sampled per round (overrides -sample-fraction)")
	deadline := flag.Duration("deadline", 0, "per-round deadline; stragglers are dropped (0 = wait forever)")
	seed := flag.Int64("seed", 1, "cohort sampling seed")
	codecName := flag.String("codec", "f64", "tensor wire codec offered to clients: f64, f32, or q8")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-operation transport deadline: handshake reads and model-distribution writes (0 = none)")
	secAgg := flag.Bool("secagg", false, "secure aggregation: clients send double-masked updates over a k-regular mask graph (see -mask-degree); protected layers aggregate inside a simulated server enclave")
	secAggScale := flag.Int("secagg-scale", secagg.DefaultScaleBits, "fixed-point fractional bits for masked updates")
	maskDegree := flag.Int("mask-degree", 0, "secagg mask-graph degree k: each client masks against k graph neighbours plus a Shamir-shared self mask, and a round survives any (k-1)/2 dropouts; 0 = size k from each round's cohort (log2 cohort, at least 6, i.e. 2 dropouts), k>0 = pin it; negative is an error")
	quarantineRounds := flag.Int("quarantine-rounds", 0, "probation window for failed clients in rounds (0 = permanent exclusion)")
	minRelease := flag.Int("min-release", 0, "secure-aggregation release floor: rounds folding fewer updates never publish their aggregate (0 = no floor)")
	adaptiveCodec := flag.Float64("adaptive-codec", 0, "adaptive codec downgrade: open the session at f64 and switch capable clients to q8 once the round update norm falls below this threshold (0 = off; flat mode only)")
	edges := flag.Int("edges", 0, "hierarchical root mode: wait for this many fledge edge aggregators instead of clients (0 = flat server)")
	minShards := flag.Int("min-shards", 0, "root mode: shard partials required per round (0 = all edges)")
	async := flag.Bool("async", false, "asynchronous buffered federation: clients push whenever ready; -rounds counts buffered model applications instead of synchronous cycles")
	goalUpdates := flag.Int("goal-updates", 0, "async: buffer goal K — apply the staleness-weighted aggregate once this many updates fold (0 = -min-clients)")
	maxStaleness := flag.Int("max-staleness", 0, "async: discard updates trained on a model more than this many versions old (0 = fold any staleness, discounted)")
	asyncBuffer := flag.Int("async-buffer", 0, "async: arrival fan-in capacity before backpressure reaches the transports (0 = 2x goal)")
	pushInterval := flag.Duration("push-interval", 0, "async: per-device fold rate limit; faster pushes are discarded as duplicates (0 = unlimited)")
	journalPath := flag.String("journal", "", "write-ahead round journal for crash durability (empty = none)")
	recoverRun := flag.Bool("recover", false, "resume a crashed session from -journal: replay committed rounds, then continue with the reconnecting fleet")
	aggName := flag.String("aggregation", "fedavg", "round aggregation: fedavg, trimmed-mean, or median (the robust modes are incompatible with -secagg)")
	trim := flag.Float64("trim", 0.1, "per-tail trim fraction for -aggregation trimmed-mean, in (0, 0.5)")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics (Prometheus), /healthz, and /debug/pprof (empty = off)")
	adminToken := flag.String("admin-token", "", "bearer token required on every admin request; mandatory for non-loopback -admin binds")
	adminCert := flag.String("admin-cert", "", "PEM certificate serving the admin endpoint over TLS (needs -admin-key)")
	adminKey := flag.String("admin-key", "", "PEM private key for -admin-cert")
	spansPath := flag.String("spans", "", "export round spans as JSONL to this file (empty = off)")
	clientTelemetry := flag.Bool("client-telemetry", false, "fold device-side gradsec_client_* metrics riding plaintext GradUps into the server registry (needs -admin)")
	flag.Parse()
	codec, err := wire.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}
	aggMethod, err := fl.ParseAggMethod(*aggName)
	if err != nil {
		log.Fatal(err)
	}
	if *recoverRun && *journalPath == "" {
		log.Fatal("-recover needs the crashed session's -journal")
	}
	root := *edges > 0

	// A root plans nothing: each edge plans its own shard's rounds.
	var protect []int
	if trimmed := strings.TrimSpace(*layers); !root && trimmed != "" && trimmed != "none" {
		for _, part := range strings.Split(trimmed, ",") {
			l, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || l < 1 {
				log.Fatalf("bad -protect entry %q", part)
			}
			protect = append(protect, l-1)
		}
	}
	global := nn.NewLeNet5Mini(rand.New(rand.NewSource(7)), nn.ActReLU)
	var planner fl.RoundPlanner = fl.NoProtection{}
	planDesc := "none"
	if len(protect) > 0 {
		plan, err := core.NewStaticPlan(protect...)
		if err != nil {
			log.Fatal(err)
		}
		planner = core.NewPlanner(plan, global, func(ls []int) map[int]bool {
			return core.FlatIndicesForLayers(global, ls)
		})
		planDesc = plan.String()
	}

	// What the flat server and the hierarchy root share: the root is the
	// same engine over edge peers — one partial fold per shard per round,
	// fan-in O(shards) instead of O(fleet).
	dropped := "quarantined"
	if root {
		dropped = "dropped edge"
	}
	cfg := fl.ServerConfig{
		EdgePeers:       root,
		Rounds:          *rounds,
		MinClients:      *minClients,
		RoundDeadline:   *deadline,
		Codec:           codec,
		IOTimeout:       *ioTimeout,
		SecAgg:          *secAgg,
		SecAggScaleBits: *secAggScale,
		MaskDegree:      *maskDegree,
		MinRelease:      *minRelease,
		// Flat-server modes: a root plans nothing, and Validate refuses
		// the rest under -edges.
		Planner:      planner,
		Aggregation:  aggMethod,
		TrimFraction: *trim,
		Async: fl.AsyncConfig{
			Enabled:         *async,
			GoalUpdates:     *goalUpdates,
			MaxStaleness:    *maxStaleness,
			Buffer:          *asyncBuffer,
			MinPushInterval: *pushInterval,
		},
		Hooks: fl.Hooks{
			ClientQuarantined: func(device string, reason error) {
				fmt.Printf("%s %s: %v\n", dropped, device, reason)
			},
			ClientProbationed: func(device string, reason error) {
				fmt.Printf("probationed %s: %v\n", device, reason)
			},
			RoundClosed: func(st fl.RoundStats) {
				if root {
					fmt.Printf("round %d: %d shards, sampled %d, responded %d, dropped %d, reconciled %d, |update| %.4f\n",
						st.Round, st.Shards, st.Sampled, st.Responded, st.Dropped, st.Reconciled, st.UpdateNorm)
					return
				}
				fmt.Printf("round %d: sampled %d, responded %d, dropped %d, probation %d, quarantined %d, reconciled %d, |update| %.4f\n",
					st.Round, st.Sampled, st.Responded, st.Dropped, st.Probation, st.Quarantined, st.Reconciled, st.UpdateNorm)
			},
		},
	}
	if root {
		cfg.MinClients = *minShards
	} else {
		// The client-facing policies: under a root they are each edge's own.
		cfg.SampleFraction, cfg.SampleCount, cfg.SampleSeed = *sampleFraction, *sampleCount, *seed
		cfg.QuarantineRounds, cfg.AdaptiveCodec, cfg.ClientTelemetry = *quarantineRounds, *adaptiveCodec, *clientTelemetry
	}
	// The one compatibility check, before anything is created or bound:
	// a configuration the engine refuses is a usage error.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "flserver: %v\n", err)
		os.Exit(2)
	}

	// Secure aggregation with protected layers requires the aggregation
	// enclave — the server must not unseal updates into plaintext.
	var enclave *secagg.Enclave
	if *secAgg && len(protect) > 0 {
		enclave, err = secagg.NewEnclave("flserver-aggregator")
		if err != nil {
			log.Fatal(err)
		}
		defer enclave.Close()
		cfg.Enclave = enclave
	}

	jnl, err := openJournal(*journalPath, *recoverRun)
	if err != nil {
		log.Fatal(err)
	}
	if jnl != nil {
		defer jnl.Close()
	}

	tel, err := obs.OpenTelemetry(*adminAddr, *spansPath)
	if err != nil {
		log.Fatal(err)
	}
	tel.Security = obs.AdminSecurity{Token: *adminToken, CertFile: *adminCert, KeyFile: *adminKey}
	defer closeTelemetry(tel)
	cfg.Journal, cfg.Metrics, cfg.Spans = jnl, tel.Metrics, tel.Spans
	var srvHolder atomic.Pointer[fl.Server]
	serveAdmin(tel, *adminAddr, func() obs.Health {
		if s := srvHolder.Load(); s != nil {
			return s.Health()
		}
		return obs.Health{}
	})

	l, err := fl.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	mode := "plaintext aggregation"
	if *secAgg {
		mode = "secure aggregation (k-regular masking, auto degree"
		if *maskDegree > 0 {
			mode = fmt.Sprintf("secure aggregation (k-regular masking, degree %d", *maskDegree)
		}
		if enclave != nil {
			mode += " + enclave"
		}
		mode += ")"
	}
	if *async {
		mode = "asynchronous buffered aggregation"
	}
	if aggMethod != fl.AggFedAvg {
		mode = fmt.Sprintf("Byzantine-robust aggregation (%s)", aggMethod)
	}
	peers, peer := *clients, "client"
	if root {
		peers, peer = *edges, "edge"
		mode = "plain partial sums"
		if *secAgg {
			mode = "masked ring partials (shard-scoped secure aggregation)"
		}
		fmt.Printf("flserver (root) listening on %s; waiting for %d edge aggregators (codec %s, %s)\n",
			l.Addr(), peers, codec, mode)
	} else {
		fmt.Printf("flserver listening on %s; waiting for %d clients (plan %s, codec %s, %s)\n",
			l.Addr(), peers, planDesc, codec, mode)
	}

	conns := make([]fl.Conn, 0, peers)
	for len(conns) < peers {
		c, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
		fmt.Printf("%s %d connected\n", peer, len(conns))
	}

	var srv *fl.Server
	if *recoverRun {
		srv, err = fl.Recover(*journalPath, global.StateDict(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recovered session from %s: resuming at round %d\n", *journalPath, srv.NextRound())
	} else {
		srv = fl.NewServer(global.StateDict(), cfg)
	}
	srvHolder.Store(srv)
	var interrupted atomic.Bool
	abortOnSignal(&interrupted, conns)
	unit := "rounds"
	if *async {
		unit = "model versions"
	}
	selected, err := srv.Run(conns)
	if interrupted.Load() {
		// Graceful shutdown: the engine already tore the session down
		// through its transport-failure path (committing the journal
		// close records); flush the remaining durability surfaces and
		// report what completed.
		if jnl != nil {
			_ = jnl.Sync()
		}
		closeTelemetry(tel)
		fmt.Printf("session interrupted: %d %s committed, telemetry flushed\n", len(srv.Trace()), unit)
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "session failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("session complete: %d %ss, %d %s, %d parameter tensors aggregated\n",
		selected, peer, *rounds, unit, len(srv.State()))
}

// abortOnSignal arranges a graceful shutdown: the first SIGINT/SIGTERM
// closes every session connection, which unwinds the engine through its
// ordinary transport-failure path on its own goroutine — no
// cross-goroutine access to session state. A second signal falls back
// to the runtime's default (kill).
func abortOnSignal(interrupted *atomic.Bool, conns []fl.Conn) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Stop(sig)
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "received %s: aborting session\n", s)
		for _, c := range conns {
			_ = c.Close()
		}
	}()
}

// serveAdmin starts the admin HTTP listener when an address is set.
func serveAdmin(tel *obs.Telemetry, addr string, health func() obs.Health) {
	bound, err := tel.Serve(addr, health)
	if err != nil {
		log.Fatal(err)
	}
	if bound != "" {
		fmt.Printf("admin listening on %s (/metrics, /healthz, /debug/pprof)\n", bound)
	}
}

// closeTelemetry flushes the telemetry surfaces, reporting a failed
// span export. Safe to call more than once.
func closeTelemetry(tel *obs.Telemetry) {
	if err := tel.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "span export: %v\n", err)
	}
}

// openJournal opens the write-ahead journal: created fresh for a new
// session, reopened for appending when resuming a crashed one.
func openJournal(path string, resume bool) (*journal.Journal, error) {
	if path == "" {
		return nil, nil
	}
	if resume {
		return journal.Append(path)
	}
	return journal.Create(path)
}
