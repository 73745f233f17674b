// Command flserver runs a GradSec federated-learning server over TCP in
// one of three roles, each the same fl round engine:
//
//   - flat (default): waits for -clients connections, performs TEE-aware
//     selection (open enrolment: device keys are accepted on first use),
//     and drives -rounds FL cycles of LeNet-5-mini under the -protect
//     plan — asynchronous buffered federation with -async, a
//     Byzantine-robust aggregator with -aggregation.
//   - root (-edges N): waits for N edges and folds one partial aggregate
//     per shard per round: fan-in O(shards) instead of O(fleet).
//   - edge (-upstream ADDR): waits for its -clients shard clients, dials
//     the root and forwards one partial per round the root paces. SecAgg,
//     its precision and mask degree come from the root's challenge; an
//     edge plans no protection and accepts the root's broadcast up to its
//     own -codec.
//
// A flat server or root with -journal writes a checksummed round journal;
// -recover replays it and resumes the session bit-identically. A flag set
// for a role that does not read it (readBy, printed by -help), or a
// configuration fl.ServerConfig.Validate refuses, is a usage error (exit
// status 2) before anything is created, bound or dialled.
//
//	flserver -edges 2 -rounds 3
//	flserver -upstream 127.0.0.1:7443 -name edge-a -addr :7501 -clients 2
//	flclient -addr 127.0.0.1:7501 -name pi-1
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/wire"
)

// role is a set of the tiers flserver runs as.
type role uint8

const (
	flat role = 1 << iota
	root      // -edges N
	edge      // -upstream ADDR
)

func (r role) String() string {
	var names []string
	for i, n := range [...]string{"flat", "root", "edge"} {
		if r&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, ", ")
}

// readBy is the role table: each row names the flags its roles read. An
// edge adopts the root's pacing and SecAgg; a root's edges own the client policies.
var readBy = [...]struct {
	roles role
	flags string
}{
	{flat | root | edge, "-addr -codec -deadline -io-timeout -min-release -admin -admin-token -admin-cert -admin-key -spans"},
	{flat | edge, "-clients -min-clients -sample-fraction -sample-count -seed -quarantine-rounds -client-telemetry"},
	{flat | root, "-rounds -secagg -secagg-scale -mask-degree -journal -recover"},
	{flat, "-protect -adaptive-codec -aggregation -trim -async -goal-updates -max-staleness -async-buffer -push-interval"},
	{root, "-edges -min-shards"},
	{edge, "-upstream -name -retry -retry-max"},
}

// checkRole refuses an explicitly set flag that the role does not read.
func checkRole(r role) (err error) {
	flag.Visit(func(f *flag.Flag) {
		var rs role
		for _, row := range readBy {
			if slices.Contains(strings.Fields(row.flags), "-"+f.Name) {
				rs |= row.roles
			}
		}
		if rs&r == 0 && err == nil {
			err = fmt.Errorf("-%s is not read by the %s role (only by: %s)", f.Name, r, rs)
		}
	})
	return err
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintln(out, "usage: flserver [flags]\n\nRoles: flat (default), root (-edges N), edge (-upstream ADDR). A flag set\nfor a role that does not read it is a usage error. The flags each role reads:")
	for _, row := range readBy {
		fmt.Fprintf(out, "  %-17s %s\n", row.roles.String()+":", row.flags)
	}
	flag.PrintDefaults()
}

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
	codecName := flag.String("codec", "f64", "tensor wire codec offered to clients (an edge also accepts the root's broadcast up to it): f64, f32, or q8")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-operation transport deadline: handshake reads and model-distribution writes (0 = none)")
	secAgg := flag.Bool("secagg", false, "secure aggregation: clients send double-masked updates over a k-regular mask graph (see -mask-degree); protected layers aggregate inside a simulated server enclave")
	secAggScale := flag.Int("secagg-scale", secagg.DefaultScaleBits, "fixed-point fractional bits for masked updates")
	maskDegree := flag.Int("mask-degree", 0, "secagg mask-graph degree k: each client masks against k graph neighbours plus a Shamir-shared self mask, and a round survives any (k-1)/2 dropouts; 0 = size k from each round's cohort (log2 cohort, at least 6, i.e. 2 dropouts), k>0 = pin it; negative is an error")
	quarantineRounds := flag.Int("quarantine-rounds", 0, "probation window for failed clients in rounds (0 = permanent exclusion)")
	minRelease := flag.Int("min-release", 0, "secure-aggregation release floor: rounds folding fewer updates never publish their aggregate (0 = no floor)")
	adaptiveCodec := flag.Float64("adaptive-codec", 0, "adaptive codec downgrade: open the session at f64 and switch capable clients to q8 once the round update norm falls below this threshold (0 = off)")
	edges := flag.Int("edges", 0, "hierarchical root mode: wait for this many edge aggregators instead of clients (0 = flat server)")
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
	clientTelemetry := flag.Bool("client-telemetry", false, "fold device-side gradsec_client_* metrics riding plaintext GradUps into the server registry (an edge forwards them to the root; needs -admin)")
	upstream := flag.String("upstream", "", "edge mode: the root's address (flserver -edges); this server then aggregates one shard (empty = not an edge)")
	name := flag.String("name", "edge", "edge mode: shard identity at the root")
	retries := flag.Int("retry", 1, "edge mode: total root connection attempts with jittered exponential backoff (1 = no retry)")
	retryMax := flag.Duration("retry-max", 8*time.Second, "edge mode: backoff cap between root connection attempts")
	flag.Usage = usage
	flag.Parse()
	r := flat
	if *upstream != "" {
		r = edge
	} else if *edges > 0 {
		r = root
	}
	if err := checkRole(r); err != nil {
		fmt.Fprintf(os.Stderr, "flserver: %v\n", err)
		os.Exit(2)
	}
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

	// Only a flat server plans protection; a root's and an edge's shards
	// run unprotected, as their clients are told each round.
	var protect []int
	if trimmed := strings.TrimSpace(*layers); r == flat && trimmed != "" && trimmed != "none" {
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

	// One configuration for every role: a flag the role does not read was
	// refused above, so it holds its default here.
	dropped := "quarantined"
	if r == root {
		dropped = "dropped edge"
	}
	cfg := fl.ServerConfig{
		EdgePeers:        r == root,
		Partials:         r == edge,
		Rounds:           *rounds,
		MinClients:       *minClients,
		SampleFraction:   *sampleFraction,
		SampleCount:      *sampleCount,
		SampleSeed:       *seed,
		RoundDeadline:    *deadline,
		Codec:            codec,
		IOTimeout:        *ioTimeout,
		SecAgg:           *secAgg,
		SecAggScaleBits:  *secAggScale,
		MaskDegree:       *maskDegree,
		MinRelease:       *minRelease,
		QuarantineRounds: *quarantineRounds,
		AdaptiveCodec:    *adaptiveCodec,
		ClientTelemetry:  *clientTelemetry,
		Planner:          planner,
		Aggregation:      aggMethod,
		TrimFraction:     *trim,
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
				switch r {
				case root:
					fmt.Printf("round %d: %d shards, sampled %d, responded %d, dropped %d, reconciled %d, |update| %.4f\n",
						st.Round, st.Shards, st.Sampled, st.Responded, st.Dropped, st.Reconciled, st.UpdateNorm)
				case edge: // an edge forwards its partial unnormalised: it sees no update norm
					fmt.Printf("shard round %d: sampled %d, responded %d, dropped %d, probation %d, quarantined %d, reconciled %d\n",
						st.Round, st.Sampled, st.Responded, st.Dropped, st.Probation, st.Quarantined, st.Reconciled)
				default:
					fmt.Printf("round %d: sampled %d, responded %d, dropped %d, probation %d, quarantined %d, reconciled %d, |update| %.4f\n",
						st.Round, st.Sampled, st.Responded, st.Dropped, st.Probation, st.Quarantined, st.Reconciled, st.UpdateNorm)
				}
			},
		},
	}
	switch r {
	case root:
		cfg.MinClients = *minShards
	case edge:
		cfg.Rounds = 0 // the root paces the rounds
	}
	// The one compatibility check: a config the engine refuses is a usage error.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "flserver: %v\n", err)
		os.Exit(2)
	}

	// Secure aggregation with protected layers requires the aggregation
	// enclave — the server must not unseal updates into plaintext.
	if *secAgg && len(protect) > 0 {
		if cfg.Enclave, err = secagg.NewEnclave("flserver-aggregator"); err != nil {
			log.Fatal(err)
		}
		defer cfg.Enclave.Close()
	}

	var jnl *journal.Journal
	switch {
	case *recoverRun:
		jnl, err = journal.Append(*journalPath)
	case *journalPath != "":
		jnl, err = journal.Create(*journalPath)
	}
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
	var srv *fl.Server
	var shard *hier.Edge
	var health func() obs.Health
	switch {
	case r == edge:
		// Only the template's shapes matter: the root's broadcast sets its values.
		shard = hier.NewEdge(global.StateDict(), hier.EdgeConfig{Name: *name, MaxCodec: codec, Server: cfg})
		health = shard.Health
	case *recoverRun:
		if srv, err = fl.Recover(*journalPath, global.StateDict(), cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recovered session from %s: resuming at round %d\n", *journalPath, srv.NextRound())
	default:
		srv = fl.NewServer(global.StateDict(), cfg)
	}
	if srv != nil {
		health = srv.Health
	}
	if bound, err := tel.Serve(*adminAddr, health); err != nil {
		log.Fatal(err)
	} else if bound != "" {
		fmt.Printf("admin listening on %s (/metrics, /healthz, /debug/pprof)\n", bound)
	}

	l, err := fl.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	peers, peer, mode := *clients, "client", "plaintext aggregation"
	switch {
	case r == root:
		peers, peer, mode = *edges, "edge", "plain partial sums"
		if *secAgg {
			mode = "masked ring partials (shard-scoped secure aggregation)"
		}
	case r == edge:
		peer, mode = "shard client", "aggregation mode from the root"
	case aggMethod != fl.AggFedAvg:
		mode = fmt.Sprintf("Byzantine-robust aggregation (%s)", aggMethod)
	case *async:
		mode = "asynchronous buffered aggregation"
	case *secAgg:
		degree := "auto degree"
		if *maskDegree > 0 {
			degree = fmt.Sprintf("degree %d", *maskDegree)
		}
		if cfg.Enclave != nil {
			degree += " + enclave"
		}
		mode = fmt.Sprintf("secure aggregation (k-regular masking, %s)", degree)
	}
	fmt.Printf("flserver (%s) listening on %s; waiting for %d %ss (plan %s, codec %s, %s)\n",
		r, l.Addr(), peers, peer, planDesc, codec, mode)

	conns := make([]fl.Conn, 0, peers)
	for len(conns) < peers {
		c, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
		fmt.Printf("%s %d connected\n", peer, len(conns))
	}
	if shard != nil {
		runEdge(shard, *name, conns, *upstream, fl.RetryConfig{Attempts: *retries, Max: *retryMax})
		return
	}

	var interrupted atomic.Bool
	abortOnSignal(&interrupted, conns, nil)
	unit := "rounds"
	if *async {
		unit = "model versions"
	}
	selected, err := srv.Run(conns)
	if interrupted.Load() {
		// The engine tore the session down through its transport-failure
		// path; flush the remaining durability surfaces.
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

// runEdge enrols the shard with the root and serves the rounds the root
// paces until its Done, which it forwards to the shard's clients. The
// caller's deferred teardown flushes the telemetry.
func runEdge(shard *hier.Edge, name string, conns []fl.Conn, upstream string, retry fl.RetryConfig) {
	up, err := fl.DialRetry(upstream, retry)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolling with root at %s\n", upstream)
	var interrupted atomic.Bool
	abortOnSignal(&interrupted, conns, shard.Abort)
	err = shard.Run(up, conns)
	switch {
	case interrupted.Load():
		fmt.Printf("edge interrupted: %d shard rounds served\n", shard.Rounds)
	case err != nil:
		fmt.Fprintf(os.Stderr, "edge session failed: %v\n", err)
		os.Exit(1)
	case shard.RejectedReason != "":
		fmt.Printf("rejected by root: %s\n", shard.RejectedReason)
	default:
		fmt.Printf("%s: %d shard clients served across %d rounds; partials forwarded upstream\n",
			name, shard.Selected, shard.Rounds)
	}
}

// abortOnSignal arranges a graceful shutdown: the first SIGINT/SIGTERM
// calls abort (an edge's upstream teardown, or nil) and closes every
// session connection, which unwinds the engine through its ordinary
// transport-failure path on its own goroutine. A second signal falls
// back to the runtime's default (kill).
func abortOnSignal(interrupted *atomic.Bool, conns []fl.Conn, abort func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Stop(sig)
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "received %s: aborting session\n", s)
		if abort != nil {
			abort()
		}
		for _, c := range conns {
			_ = c.Close()
		}
	}()
}

// closeTelemetry flushes the telemetry surfaces, reporting a failed
// span export. Safe to call more than once.
func closeTelemetry(tel *obs.Telemetry) {
	if err := tel.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "span export: %v\n", err)
	}
}
