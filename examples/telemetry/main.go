// Command telemetry demonstrates the fleet observability surface: a
// deterministic simulated fleet runs with a metrics registry and span
// export attached, the admin HTTP listener comes up on a loopback
// port, and the program scrapes its own /metrics and /healthz exactly
// as a Prometheus collector or load balancer would.
//
// A second phase shows the fleet-wide telemetry plane: a hierarchical
// fleet runs with per-edge registries whose snapshot deltas ride each
// PartialUp upstream, so the root's single /metrics endpoint answers
// per-shard latency quantiles mid-session — no side-channel scrape
// mesh into the edges.
//
// The same surface attaches to the real binaries with
// `flserver -admin 127.0.0.1:9090 -spans rounds.jsonl` (and the same
// flags on an edge, flserver -upstream, or on flclient; add -admin-token
// for non-loopback binds and -client-telemetry to fold device-side
// metrics).
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"github.com/gradsec/gradsec"
)

func main() {
	model := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU)

	// Attach a registry and a span sink to an ordinary fleet scenario.
	// Telemetry never feeds back into the protocol: the trace below is
	// bit-identical to the same scenario run with both disabled.
	reg := gradsec.NewMetrics()
	var spans bytes.Buffer
	scenario := gradsec.FleetScenario{
		Clients:           64,
		Rounds:            6,
		MinClients:        8,
		SampleFraction:    0.5,
		Deadline:          2 * time.Second,
		StragglerFraction: 0.15,
		FailureFraction:   0.05,
		Seed:              42,
		Model:             model.StateDict(),
		Metrics:           reg,
		Spans:             &spans,
	}

	// The admin listener serves /metrics, /healthz, and /debug/pprof.
	admin, err := gradsec.ServeAdmin("127.0.0.1:0", reg, func() gradsec.Health {
		return gradsec.Health{Open: true, Rounds: scenario.Rounds}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	fmt.Printf("admin listening on %s\n\n", admin.Addr())

	res, err := gradsec.RunFleet(scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet session: %d clients selected, %d rounds closed\n\n", res.Selected, len(res.Trace))

	// Scrape our own endpoints, exactly as an external collector would.
	health := httpGet("http://" + admin.Addr() + "/healthz")
	fmt.Printf("GET /healthz -> %s\n", strings.TrimSpace(health))

	metrics := httpGet("http://" + admin.Addr() + "/metrics")
	fmt.Println("GET /metrics (gradsec_* families, histograms elided to their summaries):")
	shown := 0
	for sc := bufio.NewScanner(strings.NewReader(metrics)); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		if strings.HasPrefix(line, "gradsec_") {
			fmt.Printf("  %s\n", line)
			shown++
		}
	}
	if shown == 0 {
		log.Fatal("scrape returned no gradsec_ samples")
	}

	// The registry answers quantile queries directly — here the
	// end-to-end round latency distribution on the fleet's virtual
	// clock (nanoseconds are simulated deadline time, not wall time).
	roundNS := reg.Histogram("gradsec_phase_ns", "", "phase", "round")
	fmt.Printf("\nround latency (virtual): p50 %v  p99 %v  over %d rounds\n",
		time.Duration(roundNS.Quantile(0.50)), time.Duration(roundNS.Quantile(0.99)), roundNS.Count())

	// The span export is JSONL on the same virtual clock — byte-identical
	// across reruns of this program.
	fmt.Printf("\nspan export (%d bytes of JSONL), first rounds:\n", spans.Len())
	lines := strings.Split(strings.TrimRight(spans.String(), "\n"), "\n")
	for i, line := range lines {
		if i >= 3 {
			fmt.Printf("  ... %d more spans\n", len(lines)-i)
			break
		}
		fmt.Printf("  %s\n", line)
	}

	fleetWide(model)
}

// fleetWide runs the hierarchical telemetry plane: four edges each keep
// a private registry, its snapshot deltas ride the shard's PartialUp
// frames, and the root folds them into fleet-wide families under
// tier/shard labels. The root's admin endpoint is scraped mid-session —
// the per-shard view converges without ever contacting an edge.
func fleetWide(model *gradsec.Network) {
	fleetReg := gradsec.NewMetrics()
	scenario := gradsec.FleetScenario{
		Clients:        16,
		Rounds:         4,
		Shards:         4,
		MinClients:     2,
		Seed:           42,
		Model:          model.StateDict(),
		Metrics:        fleetReg,
		FleetTelemetry: true,
	}
	admin, err := gradsec.ServeAdmin("127.0.0.1:0", fleetReg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	url := "http://" + admin.Addr() + "/metrics"

	resCh := make(chan *gradsec.FleetResult, 1)
	go func() {
		res, err := gradsec.RunFleet(scenario)
		if err != nil {
			log.Fatal(err)
		}
		resCh <- res
	}()

	// Poll the root's exposition while the session runs: as soon as the
	// first shard partial folds, its telemetry is scrapeable fleet-wide.
	var mid string
	var res *gradsec.FleetResult
	for res == nil {
		select {
		case res = <-resCh:
		default:
			if s := httpGet(url); mid == "" && strings.Contains(s, `tier="edge"`) {
				mid = s
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if mid == "" {
		// The virtual-clock fleet outran the poller; the final scrape
		// shows the same fleet-wide families.
		mid = httpGet(url)
	}
	fmt.Printf("\nfleet session (hierarchical): %d clients across %d shards, %d rounds closed\n",
		res.Selected, scenario.Shards, len(res.Trace))
	fmt.Println("\nmid-session scrape of the root /metrics (per-shard families, one endpoint):")
	for sc := bufio.NewScanner(strings.NewReader(mid)); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, `gradsec_phase_ns_count{phase="round",tier="edge"`) {
			fmt.Printf("  %s\n", line)
		}
	}

	fmt.Println("\nper-shard round latency (virtual), merged at the root:")
	for s := 0; s < scenario.Shards; s++ {
		shard := fmt.Sprintf("edge-%03d", s)
		h := fleetReg.Histogram("gradsec_phase_ns", "", "phase", "round", "tier", "edge", "shard", shard)
		if h.Count() == 0 {
			log.Fatalf("fleet merge produced no %s round histogram", shard)
		}
		fmt.Printf("  %s: p50 %v  p99 %v  over %d rounds\n",
			shard, time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)), h.Count())
	}
}

// httpGet fetches a URL or aborts the demo.
func httpGet(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %s", url, resp.Status)
	}
	return string(body)
}
