package fl

import (
	"errors"
	"fmt"
	"math"

	"github.com/gradsec/gradsec/internal/secagg"
)

// ErrBadPartial is the reason an edge is dropped for a PartialUp that
// fails validation: an accounting counter no shard can reach, more
// updates folded than clients sampled, a sum that does not match the
// session mode or the model layout. Nothing of a refused partial is
// folded or counted.
var ErrBadPartial = errors.New("fl: malformed shard partial")

// collectPartials is an edge-peer round's distribute and collect
// (EdgePeers): broadcast the model as a ShardDown and fold one PartialUp
// per shard until the deadline. Partial sums compose exactly — plain
// shards forward Σ wᵢuᵢ, masked shards their cancelled ring sums — and
// publish normalises once over the fleet weight, so dyadic fleets
// reproduce flat FedAvg bit for bit. The round's stats become the
// fleet's: the shard accounting each PartialUp carries, summed.
func (s *Server) collectPartials(rd *syncRound) roundSum {
	// The trace ID this tier minted (or adopted from above) rides the
	// ShardDown to every tier below.
	s.distribute(rd, &ShardDown{Round: rd.round, Model: s.state, Trace: s.curTrace})
	bcast := s.ob.now()
	var sum roundSum
	if s.cfg.SecAgg {
		sum = &maskedRound{MaskedSum: secagg.NewMaskedSum(s.state, nil, s.cfg.SecAggScaleBits)}
	} else {
		sum = s.fedAvg()
	}
	fleet := RoundStats{Round: rd.round}
	s.collect(rd, func(sess *session, msg Message) bool {
		m, ok := msg.(*PartialUp)
		if !ok {
			return false
		}
		if !s.admitUpdate(rd, sess, m.Round, "partial") {
			return true
		}
		if err := s.composePartial(m, sum); err != nil {
			s.failClient(rd, sess, true, err)
			return true
		}
		// The shard's accounting and telemetry count whether or not it
		// contributed updates: a degraded shard round is exactly what
		// the fleet view must not lose.
		fleet.Sampled += int(m.Sampled)
		fleet.Dropped += int(m.Dropped)
		fleet.Quarantined += int(m.Quarantined)
		fleet.Probation += int(m.Probation)
		fleet.LateDiscarded += int(m.LateDiscarded)
		fleet.Reconciled += int(m.Reconciled)
		s.mergeTelemetry("edge", sess.device, m.Telemetry)
		if m.Count == 0 {
			delete(rd.pending, sess)
			rd.reasons = append(rd.reasons, fmt.Sprintf("%s: empty partial (shard round failed)", sess.device))
			return true
		}
		s.ob.observePartial(bcast)
		s.noteFolded(rd, sess)
		return true
	})
	s.ob.observeFanIn(bcast)
	// The trace entry counts clients, not peers: of this tier's own
	// bookkeeping only the stale partials it discarded carry over (an
	// edge it dropped is a lost shard, not a quarantined client).
	fleet.Shards = rd.folded
	fleet.LateDiscarded += rd.stats.LateDiscarded
	rd.stats = fleet
	return sum
}

// composePartial validates one shard partial — its counters, then its
// sum against the session mode and the model layout — and composes it
// into the round's accumulator. Every check precedes every mutation,
// and the caller books the shard's accounting only once this returns
// nil, so a refused partial leaves the round exactly as if its edge had
// never answered. An empty partial (Count 0: the shard's round failed)
// composes nothing.
func (s *Server) composePartial(m *PartialUp, sum roundSum) error {
	// The counters arrive as unchecked uint64: anything a real shard
	// cannot reach would wrap the fleet's int accounting negative.
	for _, n := range [...]uint64{m.Count, m.Sampled, m.Dropped, m.Quarantined, m.Probation, m.LateDiscarded, m.Reconciled} {
		if n > math.MaxInt32 {
			return fmt.Errorf("%w: accounting counter %d out of range", ErrBadPartial, n)
		}
	}
	if m.Count > m.Sampled {
		return fmt.Errorf("%w: %d updates folded from a cohort of %d", ErrBadPartial, m.Count, m.Sampled)
	}
	if m.Count == 0 {
		return nil
	}
	mr, masked := sum.(*maskedRound)
	var err error
	switch {
	case !(m.Weight > 0) || math.IsInf(m.Weight, 0):
		err = fmt.Errorf("weight %v", m.Weight)
	case !masked && len(m.Levels) != 0:
		err = errors.New("masked partial in a plain session")
	case !masked:
		err = sum.(*Aggregator).AddPartial(m.SumViews, m.Weight, int(m.Count))
	case len(m.SumViews) != 0:
		err = errors.New("plain partial in a secure-aggregation session")
	case int(m.ScaleBits) != s.cfg.SecAggScaleBits:
		err = fmt.Errorf("quantised at %d bits, session runs %d", m.ScaleBits, s.cfg.SecAggScaleBits)
	default:
		err = mr.AddPartial(m.Levels, m.Weight, int(m.Count))
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPartial, err)
	}
	return nil
}
