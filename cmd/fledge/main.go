// Command fledge runs a GradSec edge aggregator over TCP — the middle
// tier of the hierarchical aggregation topology. Upstream it connects
// to a flserver running in root mode (-edges); downstream it is a
// complete FL server for its shard of flclient processes: TEE-aware
// selection, cohort sampling, round deadlines, quarantine, codec
// negotiation, and (when the root announces it) shard-scoped secure
// aggregation. Each round it adopts the root's global model, folds its
// shard into one partial aggregate, and forwards a single PartialUp
// frame upstream — so the root's fan-in stays O(shards) however many
// clients sit behind the edges.
//
// Example topology (one root, two edges, four clients):
//
//	flserver -edges 2 -rounds 3
//	fledge -name edge-a -addr :7501 -clients 2
//	fledge -name edge-b -addr :7502 -clients 2
//	flclient -addr 127.0.0.1:7501 -name pi-1
//	flclient -addr 127.0.0.1:7501 -name pi-2
//	flclient -addr 127.0.0.1:7502 -name pi-3
//	flclient -addr 127.0.0.1:7502 -name pi-4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/wire"
)

func main() {
	upstream := flag.String("upstream", "127.0.0.1:7443", "root server address (flserver -edges)")
	addr := flag.String("addr", "127.0.0.1:7501", "listen address for this shard's clients")
	name := flag.String("name", "edge", "edge aggregator name (shard identity at the root)")
	clients := flag.Int("clients", 2, "shard clients to wait for")
	minClients := flag.Int("min-clients", 1, "responders required per shard round")
	sampleFraction := flag.Float64("sample-fraction", 0, "fraction of shard clients sampled per round (0 = all)")
	sampleCount := flag.Int("sample-count", 0, "shard clients sampled per round (overrides -sample-fraction)")
	deadline := flag.Duration("deadline", 0, "per-round shard deadline; stragglers are dropped (0 = wait forever)")
	seed := flag.Int64("seed", 1, "shard cohort sampling seed")
	codecName := flag.String("codec", "f64", "tensor wire codec offered to the shard's clients: f64, f32, or q8")
	maxCodecName := flag.String("max-codec", "q8", "highest codec accepted from the root's offer for the model broadcast")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second, "per-operation transport deadline (0 = none)")
	quarantineRounds := flag.Int("quarantine-rounds", 0, "probation window for failed shard clients in rounds (0 = permanent exclusion)")
	minRelease := flag.Int("min-release", 0, "shard-level secure-aggregation release floor: a shard partial folding fewer updates is never forwarded (0 = no floor)")
	retries := flag.Int("retry", 1, "total upstream connection attempts with jittered exponential backoff (1 = no retry)")
	retryMax := flag.Duration("retry-max", 8*time.Second, "backoff cap between upstream connection attempts")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics (Prometheus), /healthz, and /debug/pprof (empty = off)")
	adminToken := flag.String("admin-token", "", "bearer token required on every admin request; mandatory for non-loopback -admin binds")
	adminCert := flag.String("admin-cert", "", "PEM certificate serving the admin endpoint over TLS (needs -admin-key)")
	adminKey := flag.String("admin-key", "", "PEM private key for -admin-cert")
	spansPath := flag.String("spans", "", "export shard round spans as JSONL to this file (empty = off)")
	clientTelemetry := flag.Bool("client-telemetry", false, "fold device-side gradsec_client_* metrics riding plaintext GradUps into the shard registry (and onward to the root; needs -admin)")
	flag.Parse()

	codec, err := wire.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}
	maxCodec, err := wire.ParseCodec(*maxCodecName)
	if err != nil {
		log.Fatal(err)
	}
	// The shard engine's configuration — the root's enrolment challenge
	// adds the hierarchy-wide aggregation mode — checked once, before
	// anything is bound: a configuration the engine refuses is a usage
	// error.
	scfg := fl.ServerConfig{
		Partials:         true,
		MinClients:       *minClients,
		SampleFraction:   *sampleFraction,
		SampleCount:      *sampleCount,
		SampleSeed:       *seed,
		RoundDeadline:    *deadline,
		Codec:            codec,
		IOTimeout:        *ioTimeout,
		QuarantineRounds: *quarantineRounds,
		MinRelease:       *minRelease,
		ClientTelemetry:  *clientTelemetry,
		Hooks: fl.Hooks{
			ClientQuarantined: func(device string, reason error) {
				fmt.Printf("quarantined %s: %v\n", device, reason)
			},
			RoundClosed: func(st fl.RoundStats) {
				fmt.Printf("shard round %d: sampled %d, responded %d, dropped %d, reconciled %d\n",
					st.Round, st.Sampled, st.Responded, st.Dropped, st.Reconciled)
			},
		},
	}
	if err := scfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fledge: %v\n", err)
		os.Exit(2)
	}

	tel, err := obs.OpenTelemetry(*adminAddr, *spansPath)
	if err != nil {
		log.Fatal(err)
	}
	tel.Security = obs.AdminSecurity{Token: *adminToken, CertFile: *adminCert, KeyFile: *adminKey}
	defer closeTelemetry(tel)
	scfg.Metrics, scfg.Spans = tel.Metrics, tel.Spans

	// The model template mirrors the root's: shapes are what matter,
	// values are overwritten by the root's broadcast each round.
	template := nn.NewLeNet5Mini(rand.New(rand.NewSource(7)), nn.ActReLU).StateDict()
	edge := hier.NewEdge(template, hier.EdgeConfig{Name: *name, MaxCodec: maxCodec, Server: scfg})
	if bound, err := tel.Serve(*adminAddr, edge.Health); err != nil {
		log.Fatal(err)
	} else if bound != "" {
		fmt.Printf("admin listening on %s (/metrics, /healthz, /debug/pprof)\n", bound)
	}
	l, err := fl.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	fmt.Printf("fledge %s listening on %s; waiting for %d shard clients (downstream codec %s)\n",
		*name, l.Addr(), *clients, codec)
	conns := make([]fl.Conn, 0, *clients)
	for len(conns) < *clients {
		c, err := l.Accept()
		if err != nil {
			log.Fatal(err)
		}
		conns = append(conns, c)
		fmt.Printf("shard client %d connected\n", len(conns))
	}

	up, err := fl.DialRetry(*upstream, fl.RetryConfig{Attempts: *retries, Max: *retryMax})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enrolling with root at %s\n", *upstream)

	var interrupted atomic.Bool
	abortOnSignal(&interrupted, edge, conns)
	if err := edge.Run(up, conns); err != nil {
		if interrupted.Load() {
			closeTelemetry(tel)
			fmt.Printf("edge interrupted: %d shard rounds served, telemetry flushed\n", edge.Rounds)
			return
		}
		fmt.Fprintf(os.Stderr, "edge session failed: %v\n", err)
		os.Exit(1)
	}
	if edge.RejectedReason != "" {
		fmt.Printf("rejected by root: %s\n", edge.RejectedReason)
		return
	}
	fmt.Printf("%s: %d shard clients served across %d rounds; partials forwarded upstream\n",
		*name, edge.Selected, edge.Rounds)
}

// abortOnSignal arranges a graceful shutdown: the first SIGINT/SIGTERM
// closes the upstream and every shard connection, unwinding Run through
// its ordinary transport-failure path on its own goroutine. A second
// signal falls back to the runtime's default (kill).
func abortOnSignal(interrupted *atomic.Bool, edge *hier.Edge, conns []fl.Conn) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Stop(sig)
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "received %s: aborting edge session\n", s)
		edge.Abort()
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
