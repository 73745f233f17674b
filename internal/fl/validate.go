package fl

import (
	"errors"
	"fmt"

	"github.com/gradsec/gradsec/internal/secagg"
)

// Configuration errors returned by Validate, beside the robust-mode
// errors (robust.go) and ErrBadMaskDegree.
var (
	// ErrOutOfRange rejects a setting outside its domain: a negative
	// count, a codec the wire does not know, a fixed-point precision
	// outside [0, secagg.MaxScaleBits]. NewServer fills zero values with
	// their defaults and rewrites nothing else.
	ErrOutOfRange = errors.New("fl: configuration value out of range")
	// ErrNoVerifier rejects RequireTEE without a Verifier to check the
	// quotes against.
	ErrNoVerifier = errors.New("fl: RequireTEE set but no Verifier configured")
	// ErrAsyncMode rejects asynchronous pacing under SecAgg, Partials or
	// EdgePeers: a masked cohort needs a round barrier for its masks to
	// cancel, and a shard partial is one round's sum.
	ErrAsyncMode = errors.New("fl: asynchronous mode does not compose with SecAgg, Partials or EdgePeers")
)

// Validate reports whether the configuration describes a session the
// engine can run. It is the one compatibility check: Open and Recover
// call it, and a front end (flserver in each role, flsim) calls it on the
// configuration it built before it listens or starts a device. It reads
// cfg only, and a configuration it accepts stays accepted once NewServer
// has filled in the defaults. The exclusion table (docs/ROUNDS.md):
//
//	robust Aggregation × SecAgg             ErrRobustSecAgg
//	robust Aggregation × Partials/EdgePeers ErrRobustPartials
//	robust Aggregation × Async              ErrRobustAsync
//	Async × SecAgg/Partials/EdgePeers       ErrAsyncMode
//	RequireTEE without a Verifier           ErrNoVerifier
//
// and the ranges: MaskDegree ≥ 0 (ErrBadMaskDegree), TrimFraction in
// (0, 0.5) under AggTrimmedMean (ErrBadTrim), everything else
// ErrOutOfRange.
func (cfg ServerConfig) Validate() error {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"Rounds", cfg.Rounds}, {"MinClients", cfg.MinClients}, {"MinRelease", cfg.MinRelease},
		{"Async.GoalUpdates", cfg.Async.GoalUpdates}, {"Async.Buffer", cfg.Async.Buffer},
	} {
		if f.v < 0 {
			return fmt.Errorf("%w: %s %d is negative", ErrOutOfRange, f.name, f.v)
		}
	}
	switch {
	case !cfg.Codec.Valid():
		return fmt.Errorf("%w: unknown codec %s", ErrOutOfRange, cfg.Codec)
	case cfg.SecAggScaleBits < 0 || cfg.SecAggScaleBits > secagg.MaxScaleBits:
		return fmt.Errorf("%w: SecAggScaleBits %d outside [0, %d]", ErrOutOfRange, cfg.SecAggScaleBits, secagg.MaxScaleBits)
	case cfg.MaskDegree < 0:
		return fmt.Errorf("%w: got %d", ErrBadMaskDegree, cfg.MaskDegree)
	case cfg.RequireTEE && cfg.Verifier == nil:
		return ErrNoVerifier
	}
	if cfg.Aggregation != AggFedAvg {
		switch {
		case cfg.SecAgg:
			return ErrRobustSecAgg
		case cfg.Partials || cfg.EdgePeers:
			return ErrRobustPartials
		case cfg.Async.Enabled:
			return ErrRobustAsync
		case cfg.Aggregation == AggTrimmedMean && !(cfg.TrimFraction > 0 && cfg.TrimFraction < 0.5):
			return fmt.Errorf("%w: got %v", ErrBadTrim, cfg.TrimFraction)
		}
	}
	if cfg.Async.Enabled && (cfg.SecAgg || cfg.Partials || cfg.EdgePeers) {
		return ErrAsyncMode
	}
	return nil
}
