package fl

import (
	"errors"
	"fmt"
	"math"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
)

// ErrBadPartial is the reason an edge is dropped for a PartialUp that
// fails validation: an accounting counter no shard can reach, more
// updates folded than clients sampled, a sum that does not match the
// session mode or the model layout. Nothing of a refused partial is
// folded or counted.
var ErrBadPartial = errors.New("fl: malformed shard partial")

// partialSum is what a round needs of its accumulator once the shard
// partials are in: an Aggregator over exact float sums in plain
// sessions, a secagg.MaskedSum over ring sums in masked ones.
type partialSum interface {
	Count() int
	Weight() float64
	Mean() ([]*tensor.Tensor, error)
}

// runEdgeRound executes one FL cycle over edge peers (EdgePeers) on the
// same skeleton as runRound: broadcast the model as a ShardDown, fold
// one PartialUp per shard until the deadline, and close. Partial sums
// compose exactly — plain shards forward Σ wᵢuᵢ, masked shards their
// cancelled ring sums — and are normalised once over the fleet weight,
// so dyadic fleets reproduce flat FedAvg bit for bit. The round's stats
// are the fleet's: the shard accounting each PartialUp carries, summed.
// In partial mode the composed sum goes further upstream instead of
// being applied.
func (s *Server) runEdgeRound(round int) (*Partial, error) {
	rd, err := s.openRound(round)
	if err != nil {
		return nil, err
	}
	defer rd.finish()

	// The trace ID this tier minted (or adopted from above) rides the
	// ShardDown to every tier below.
	s.distribute(rd, &ShardDown{Round: round, Model: s.state, Trace: s.curTrace}, unsealed, nil)
	bcast := s.ob.now()

	var agg *Aggregator
	var msum *secagg.MaskedSum
	var sum partialSum
	if s.cfg.SecAgg {
		msum = secagg.NewMaskedSum(s.state, nil, s.cfg.SecAggScaleBits)
		sum = msum
	} else {
		agg = NewAggregator(s.state)
		sum = agg
	}
	fleet := RoundStats{Round: round}
	s.collect(rd, func(sess *session, msg Message) bool {
		m, ok := msg.(*PartialUp)
		if !ok {
			return false
		}
		if !s.admitUpdate(rd, sess, m.Round, "partial") {
			return true
		}
		if err := s.composePartial(m, agg, msum); err != nil {
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
		fleet.Shards++
		s.ob.observePartial(bcast)
		s.noteFolded(rd, sess)
		return true
	})
	s.ob.observeFanIn(bcast)
	// The trace entry counts clients, not peers: of this tier's own
	// bookkeeping only the stale partials it discarded carry over (an
	// edge it dropped is a lost shard, not a quarantined client).
	fleet.LateDiscarded += rd.stats.LateDiscarded
	fleet.Responded, fleet.WeightTotal = sum.Count(), sum.Weight()
	rd.stats = fleet

	ptClose := s.ob.startPhase("close", round)
	defer ptClose.end()
	if err := s.minClientsGate(rd, fleet.Shards); err != nil {
		return nil, err
	}
	if err := s.releaseGate(rd, sum.Count()); err != nil {
		return nil, err
	}
	if s.cfg.Partials {
		s.closeRound(rd.stats, true, nil)
		p := &Partial{Round: round, Weight: sum.Weight(), Count: sum.Count(), Stats: rd.stats}
		if msum != nil {
			p.Levels, p.ScaleBits = msum.Levels(), s.cfg.SecAggScaleBits
		} else {
			p.Sum = agg.Sum()
		}
		return p, nil
	}
	mean, err := sum.Mean()
	if err != nil {
		s.closeRound(rd.stats, false, nil)
		return nil, err
	}
	s.applyMean(rd, mean)
	return nil, nil
}

// composePartial validates one shard partial — its counters, then its
// sum against the session mode and the model layout — and composes it
// into the round's accumulator (agg in plain sessions, msum in masked
// ones). Every check precedes every mutation, and the caller books the
// shard's accounting only once this returns nil, so a refused partial
// leaves the round exactly as if its edge had never answered. An empty
// partial (Count 0: the shard's round failed) composes nothing.
func (s *Server) composePartial(m *PartialUp, agg *Aggregator, msum *secagg.MaskedSum) error {
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
	var err error
	switch {
	case !(m.Weight > 0) || math.IsInf(m.Weight, 0):
		err = fmt.Errorf("weight %v", m.Weight)
	case msum == nil && len(m.Levels) != 0:
		err = errors.New("masked partial in a plain session")
	case msum == nil:
		err = agg.AddPartial(m.Sum, m.Weight, int(m.Count))
	case len(m.Sum) != 0:
		err = errors.New("plain partial in a secure-aggregation session")
	case int(m.ScaleBits) != s.cfg.SecAggScaleBits:
		err = fmt.Errorf("quantised at %d bits, session runs %d", m.ScaleBits, s.cfg.SecAggScaleBits)
	default:
		err = msum.AddPartial(m.Levels, m.Weight, int(m.Count))
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPartial, err)
	}
	return nil
}
