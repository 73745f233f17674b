package fl

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/wire"
)

// TestOutOfRangeConfigRefused: NewServer fills zero values only. A value
// outside its domain is refused with ErrOutOfRange — by Validate, and by
// Open before any peer is contacted — instead of being rewritten to a
// default.
func TestOutOfRangeConfigRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ServerConfig
	}{
		{"scale bits above the maximum", ServerConfig{SecAgg: true, SecAggScaleBits: secagg.MaxScaleBits + 12}},
		{"negative scale bits", ServerConfig{SecAgg: true, SecAggScaleBits: -1}},
		{"unknown codec", ServerConfig{Codec: wire.Codec(9)}},
		{"negative rounds", ServerConfig{Rounds: -1}},
		{"negative client floor", ServerConfig{MinClients: -2}},
		{"negative release floor", ServerConfig{SecAgg: true, MinRelease: -1}},
		{"negative buffer goal", ServerConfig{Async: AsyncConfig{Enabled: true, GoalUpdates: -1}}},
		{"negative fan-in buffer", ServerConfig{Async: AsyncConfig{Enabled: true, Buffer: -4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("Validate = %v, want ErrOutOfRange", err)
			}
			if _, err := NewServer(newState(1), tc.cfg).Open(nil); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("Open = %v, want ErrOutOfRange", err)
			}
		})
	}
	// Zero values are the defaults' to fill, not errors.
	if err := (ServerConfig{SecAgg: true}).Validate(); err != nil {
		t.Fatalf("zero config refused: %v", err)
	}
}

// TestRunPacesByConfig: Run reads its pacing from the configuration. The
// same asynchronous session driven through Run and through the RunAsync
// forwarder applies the same versions and fires the same UpdatePushed
// sequence — one push per version, each folded.
func TestRunPacesByConfig(t *testing.T) {
	run := func(drive func(*Server, []Conn) (int, error)) ([]RoundStats, []string) {
		var pushed []string
		srv := NewServer(newState(0), ServerConfig{
			Rounds: 3, MinClients: 1,
			Async: AsyncConfig{Enabled: true, GoalUpdates: 1},
			Hooks: Hooks{UpdatePushed: func(version int, device string, folded bool) {
				pushed = append(pushed, fmt.Sprintf("v%d %s folded=%v", version, device, folded))
			}},
		})
		serverConn, clientConn := Pipe()
		serverErr := make(chan error, 1)
		go func() {
			_, err := drive(srv, []Conn{serverConn})
			serverErr <- err
		}()
		p := dialAsyncPeer(t, "solo", clientConn)
		for i := 0; i < 3; i++ {
			p.push(p.recvModel(), 1)
		}
		p.recvDone()
		clientConn.Close()
		if err := <-serverErr; err != nil {
			t.Fatal(err)
		}
		return srv.Trace(), pushed
	}
	runTrace, runPushed := run((*Server).Run)
	asyncTrace, asyncPushed := run((*Server).RunAsync)
	want := []string{"v0 solo folded=true", "v1 solo folded=true", "v2 solo folded=true"}
	if !reflect.DeepEqual(runPushed, want) || !reflect.DeepEqual(asyncPushed, want) {
		t.Fatalf("UpdatePushed: Run %q, RunAsync %q, want %q", runPushed, asyncPushed, want)
	}
	if !reflect.DeepEqual(runTrace, asyncTrace) {
		t.Fatalf("traces differ:\n  Run:      %+v\n  RunAsync: %+v", runTrace, asyncTrace)
	}
}
