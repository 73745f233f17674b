// Command flclient runs a GradSec federated-learning client over TCP:
// a simulated TrustZone device training LeNet-5-mini on a synthetic local
// corpus, with the server-distributed protection plan enforced by the
// GradSec trusted application.
//
// The client is tier-agnostic: -addr may point at a flat flserver or at
// an edge (flserver -upstream) — the round protocol is identical, so a
// device cannot tell (and need not care) whether its aggregator is the
// root or a shard of a larger hierarchy. Adaptive servers may switch
// the session codec mid-run (CodecSwitch); the client follows any
// switch up to its -codec cap.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7443", "server address")
	name := flag.String("name", "pi-client", "device name")
	seed := flag.Int64("seed", 1, "local data seed")
	codecName := flag.String("codec", "q8", "highest tensor wire codec accepted from the server's offer: f64, f32, or q8")
	retries := flag.Int("retry", 1, "total connection attempts with jittered exponential backoff (1 = no retry)")
	retryMax := flag.Duration("retry-max", 8*time.Second, "backoff cap between connection attempts")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics, /healthz, and /debug/pprof for on-device debugging (empty = off)")
	adminToken := flag.String("admin-token", "", "bearer token required on every admin request; mandatory for non-loopback -admin binds")
	adminCert := flag.String("admin-cert", "", "PEM certificate serving the admin endpoint over TLS (needs -admin-key)")
	adminKey := flag.String("admin-key", "", "PEM private key for -admin-cert")
	telemetry := flag.Bool("telemetry", false, "meter device-side training (gradsec_client_*) and piggyback deltas on plaintext GradUps for server-side folding")
	spansPath := flag.String("spans", "", "export device train spans as JSONL to this file (empty = off)")
	flag.Parse()

	maxCodec, err := wire.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}

	gen := dataset.NewGenerator(rand.New(rand.NewSource(*seed)), 10, 1, 16, 16, 0.2)
	data := gen.FixedSet(rand.New(rand.NewSource(*seed+1)), 6)
	bRng := rand.New(rand.NewSource(*seed + 2))

	dev := tz.NewDevice(*name)
	net := nn.NewLeNet5Mini(rand.New(rand.NewSource(7)), nn.ActReLU)
	plan, err := core.NewStaticPlan(0) // replaced by the server's plan each round
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := core.NewSecureTrainer(dev, net, plan, core.TrainerConfig{
		Iterations: 3, LR: 0.05,
		Batch: func(int, int) (*tensor.Tensor, *tensor.Tensor) { return data.RandomBatch(bRng, 12) },
	})
	if err != nil {
		log.Fatal(err)
	}

	// With -telemetry the device carries its own registry: scrapeable
	// locally on the admin listener, and its deltas ride each plaintext
	// GradUp upstream for the server to fold (if the operator opted in
	// there with -client-telemetry).
	var metrics *obs.Registry
	if *telemetry {
		metrics = obs.NewRegistry()
	}
	var spans *obs.TraceSink
	if *spansPath != "" {
		f, err := os.Create(*spansPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		spans = obs.NewTraceSink(f, nil)
	}
	var sessionDone atomic.Bool
	if *adminAddr != "" {
		sec := obs.AdminSecurity{Token: *adminToken, CertFile: *adminCert, KeyFile: *adminKey}
		admin, err := obs.ServeAdminSecure(*adminAddr, metrics, func() obs.Health {
			return obs.Health{Open: !sessionDone.Load()}
		}, sec)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		fmt.Printf("admin listening on %s (/metrics, /healthz, /debug/pprof)\n", admin.Addr())
	}

	conn, err := fl.DialRetry(*addr, fl.RetryConfig{Attempts: *retries, Max: *retryMax})
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	client := fl.NewClient(conn, core.NewGradSecClient(*name, trainer))
	client.MaxCodec = maxCodec
	client.Metrics = metrics
	client.Spans = spans
	err = client.Run()
	sessionDone.Store(true)
	if err != nil {
		log.Fatal(err)
	}
	if client.RejectedReason != "" {
		fmt.Printf("rejected by server: %s\n", client.RejectedReason)
		return
	}
	mode := "plaintext updates"
	if client.SecAgg {
		mode = "masked updates (secure aggregation)"
	}
	fmt.Printf("%s: completed %d rounds over codec %s with %s; final model received (%d tensors); SMCs %d\n",
		*name, client.Rounds, client.NegotiatedCodec, mode, len(client.Final), dev.SMCCount())
}
