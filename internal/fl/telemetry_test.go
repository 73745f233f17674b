package fl

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/obs"
)

// runClientTelemetrySession drives a two-client session where each
// device carries its own registry and span sink, returning the server
// registry and the per-device span streams.
func runClientTelemetrySession(t *testing.T, rounds int, optIn bool) (*obs.Registry, []*bytes.Buffer) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := NewServer(newState(0), ServerConfig{
		Rounds: rounds, MinClients: 2, Metrics: reg, ClientTelemetry: optIn,
	})
	devices := []string{"dev-0", "dev-1"}
	serverConns := make([]Conn, len(devices))
	spanBufs := make([]*bytes.Buffer, len(devices))
	var fleet sync.WaitGroup
	for i, d := range devices {
		sc, cc := Pipe()
		serverConns[i] = sc
		spanBufs[i] = &bytes.Buffer{}
		cl := NewClient(cc, newTestTrainer(d, false, 1))
		cl.Metrics = obs.NewRegistry()
		cl.Spans = obs.NewTraceSink(spanBufs[i], nil)
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			if err := cl.Run(); err != nil {
				t.Errorf("client: %v", err)
			}
		}()
	}
	if _, err := srv.Run(serverConns); err != nil {
		t.Fatal(err)
	}
	fleet.Wait()
	return reg, spanBufs
}

// TestClientTelemetryFoldsAtServer: with the server's ClientTelemetry
// opt-in, each device's gradsec_client_* registry rides its GradUps
// upstream and folds into the server registry under tier/shard labels,
// and every device span carries the server-minted round trace ID.
func TestClientTelemetryFoldsAtServer(t *testing.T) {
	const rounds = 2
	reg, spanBufs := runClientTelemetrySession(t, rounds, true)

	for _, d := range []string{"dev-0", "dev-1"} {
		if got := reg.Histogram("gradsec_client_train_ns", "", "tier", "client", "shard", d).Count(); got != rounds {
			t.Fatalf("train_ns{%s} folded %d observations, want %d", d, got, rounds)
		}
		if got := reg.Counter("gradsec_client_rounds_total", "", "result", "ok", "tier", "client", "shard", d).Value(); got != rounds {
			t.Fatalf("client_rounds_total{%s} = %d, want %d", d, got, rounds)
		}
	}
	for i, buf := range spanBufs {
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != rounds {
			t.Fatalf("device %d emitted %d spans, want %d:\n%s", i, len(lines), rounds, buf.String())
		}
		for round, line := range lines {
			if !strings.Contains(line, `"span":"train"`) {
				t.Fatalf("device %d round %d: not a train span: %s", i, round, line)
			}
			want := fmt.Sprintf(`"trace":"%016x"`, obs.RoundTrace(round))
			if !strings.Contains(line, want) {
				t.Fatalf("device %d round %d span misses the round trace %s: %s", i, round, want, line)
			}
		}
	}
}

// TestClientTelemetryRequiresOptIn: a device may attach telemetry to
// its GradUps, but a server without ClientTelemetry must drop the
// blobs — folding per-device data is the operator's policy decision.
func TestClientTelemetryRequiresOptIn(t *testing.T) {
	reg, _ := runClientTelemetrySession(t, 1, false)
	if got := reg.Histogram("gradsec_client_train_ns", "", "tier", "client", "shard", "dev-0").Count(); got != 0 {
		t.Fatalf("client telemetry folded without the server opt-in: %d observations", got)
	}
}

// TestAsyncClientTelemetryFoldsAtServer: an asynchronous session folds
// the telemetry a push carries exactly where a synchronous round does —
// after the update folded, and only under the server's opt-in. The peer
// is hand-driven: in a free-running fleet who supplies the folds is not
// deterministic.
func TestAsyncClientTelemetryFoldsAtServer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		optIn bool
		want  uint64
	}{
		{"opt-in folds the push's snapshot", true, 1},
		{"without the opt-in nothing folds", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := NewServer(newState(0), ServerConfig{
				Rounds: 1, MinClients: 1, Metrics: reg, ClientTelemetry: tc.optIn,
				Async: AsyncConfig{Enabled: true, GoalUpdates: 1},
			})
			sc, cc := Pipe()
			serverErr := make(chan error, 1)
			go func() {
				_, err := srv.RunAsync([]Conn{sc})
				serverErr <- err
			}()
			dev := dialAsyncPeer(t, "dev-0", cc)
			m := dev.recvModel()

			own := obs.NewRegistry()
			own.Histogram("gradsec_client_train_ns", "local training time").Observe(5)
			up := &GradUp{Round: m.Round, Views: m.Views, Version: m.Version, Telemetry: obs.TakeSnapshot(own).Encode()}
			if err := cc.Send(up); err != nil {
				t.Fatal(err)
			}
			dev.recvDone()
			if err := <-serverErr; err != nil {
				t.Fatal(err)
			}
			if got := reg.Histogram("gradsec_client_train_ns", "", "tier", "client", "shard", "dev-0").Count(); got != tc.want {
				t.Fatalf("train_ns{dev-0} folded %d observations, want %d", got, tc.want)
			}
		})
	}
}
