package flsim

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// TestEveryExclusionRefusedOnce sends each mode exclusion through the
// engine's one check three ways — fl.ServerConfig.Validate, Open on a
// server built from the configuration, and the flsim scenario that
// expresses it — and requires the same typed error from each, the
// scenario's before any tier starts: no result and not one span written.
// A row with no scenario is one flsim cannot express (every simulated
// fleet gets a verifier).
func TestEveryExclusionRefusedOnce(t *testing.T) {
	robust := Scenario{Clients: 4, Aggregation: "median"}
	for _, tc := range []struct {
		name  string
		cfg   fl.ServerConfig
		sc    *Scenario
		async bool
		want  error
	}{
		{"robust × secagg", fl.ServerConfig{SecAgg: true, Aggregation: fl.AggMedian},
			&Scenario{Clients: 4, SecAgg: true, Aggregation: "median"}, false, fl.ErrRobustSecAgg},
		{"robust × partials", fl.ServerConfig{Partials: true, Aggregation: fl.AggMedian},
			&Scenario{Clients: 4, Shards: 2, Aggregation: "median"}, false, fl.ErrRobustPartials},
		{"robust × edge peers", fl.ServerConfig{EdgePeers: true, Aggregation: fl.AggMedian},
			nil, false, fl.ErrRobustPartials},
		{"robust × async", fl.ServerConfig{Async: fl.AsyncConfig{Enabled: true}, Aggregation: fl.AggMedian},
			&robust, true, fl.ErrRobustAsync},
		{"trim outside (0, 0.5)", fl.ServerConfig{Aggregation: fl.AggTrimmedMean, TrimFraction: 0.5},
			&Scenario{Clients: 4, Aggregation: "trimmed-mean", TrimFraction: 0.5}, false, fl.ErrBadTrim},
		{"negative mask degree", fl.ServerConfig{SecAgg: true, MaskDegree: -1},
			&Scenario{Clients: 4, SecAgg: true, MaskDegree: -1}, false, fl.ErrBadMaskDegree},
		{"async × secagg", fl.ServerConfig{Async: fl.AsyncConfig{Enabled: true}, SecAgg: true},
			&Scenario{Clients: 4, SecAgg: true}, true, fl.ErrAsyncMode},
		{"async × shards", fl.ServerConfig{Async: fl.AsyncConfig{Enabled: true}, EdgePeers: true},
			&Scenario{Clients: 4, Shards: 2}, true, fl.ErrAsyncMode},
		{"async × partials", fl.ServerConfig{Async: fl.AsyncConfig{Enabled: true}, Partials: true},
			nil, false, fl.ErrAsyncMode},
		{"RequireTEE without a verifier", fl.ServerConfig{RequireTEE: true},
			nil, false, fl.ErrNoVerifier},
		{"unknown codec", fl.ServerConfig{Codec: wire.Codec(99)},
			&Scenario{Clients: 4, Codec: wire.Codec(99)}, false, fl.ErrOutOfRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
			model := []*tensor.Tensor{tensor.New(2)}
			if _, err := fl.NewServer(model, tc.cfg).Open(nil); !errors.Is(err, tc.want) {
				t.Fatalf("Open = %v, want %v", err, tc.want)
			}
			if tc.sc == nil {
				return
			}
			var spans bytes.Buffer
			sc := *tc.sc
			sc.Spans = &spans
			var err error
			started := false
			if tc.async {
				var res *AsyncResult
				res, err = RunAsync(AsyncScenario{Scenario: sc})
				started = res != nil
			} else {
				var res *Result
				res, err = Run(sc)
				started = res != nil
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("scenario = %v, want %v", err, tc.want)
			}
			if started || spans.Len() > 0 {
				t.Fatalf("the scenario started a tier before refusing (result %v, %d span bytes)", started, spans.Len())
			}
		})
	}
}
