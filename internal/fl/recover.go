package fl

import (
	"errors"
	"fmt"
	"time"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// ErrJournalMismatch rejects a journal whose session fingerprint
// disagrees with the configuration handed to Recover — replaying, say, a
// masked session into a plaintext server would corrupt state silently.
var ErrJournalMismatch = errors.New("fl: journal does not match session config")

// Recover rebuilds a crashed session from its journal: same round
// number, same roster, same quarantine/probation standing, same
// release floor, and — because committed rounds carry their applied
// mean updates — the same model, bit for bit. state must hold the
// *initial* model (the values the crashed server was constructed
// with); Recover replays the committed updates onto it. cfg must match
// the crashed session's configuration; the journaled fingerprint is
// validated against it, after Validate.
//
// The returned server is not yet serving: Open (or Run) resumes the
// session over the rejoining client connections — devices are matched
// against the journaled roster instead of being re-attested, and
// secure-aggregation clients present fresh mask keys (masks are
// round-scoped, so a key change between rounds is invisible to the
// protocol).
func Recover(path string, state []*tensor.Tensor, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Replay duration is real I/O plus model reconstruction, so it is
	// measured on the wall clock regardless of any simulated cfg.Clock.
	metrics := cfg.engineMetrics()
	var replayStart time.Time
	if metrics != nil {
		replayStart = time.Now()
	}
	recs, err := journal.Replay(path)
	if err != nil {
		return nil, err
	}
	st := journal.Commit(recs)
	if st.Session == nil {
		return nil, fmt.Errorf("%w: journal has no session record", ErrJournalMismatch)
	}
	s := NewServer(state, cfg) // applies config defaults first

	flags := s.sessionFlags()
	switch {
	case st.Session.Flags != flags:
		return nil, fmt.Errorf("%w: journal mode flags %#x, config %#x", ErrJournalMismatch, st.Session.Flags, flags)
	case st.Session.Seed != s.cfg.SampleSeed:
		return nil, fmt.Errorf("%w: journal sample seed %d, config %d", ErrJournalMismatch, st.Session.Seed, s.cfg.SampleSeed)
	case st.Session.Rounds != s.cfg.Rounds:
		return nil, fmt.Errorf("%w: journal plans %d rounds, config %d", ErrJournalMismatch, st.Session.Rounds, s.cfg.Rounds)
	case s.cfg.SecAgg && st.Session.Scale != s.cfg.SecAggScaleBits:
		return nil, fmt.Errorf("%w: journal scale bits %d, config %d", ErrJournalMismatch, st.Session.Scale, s.cfg.SecAggScaleBits)
	}

	// The release floor is monotonic: adopt the highest committed
	// value, and re-arm the enclave with it (a recovered process has a
	// fresh enclave whose floor starts at the config value).
	if st.Floor > s.cfg.MinRelease {
		s.cfg.MinRelease = st.Floor
		if s.cfg.Enclave != nil {
			s.cfg.Enclave.SetMinRelease(st.Floor)
		}
	}

	// Edge peers enrol afresh after a crash (Run opens, never resumes):
	// their standing lives in their own shard journals, and an edge the
	// crashed session dropped is welcome back.
	if !s.cfg.EdgePeers {
		s.roster = st.Roster
		for device := range st.Quarantined {
			s.noteHistory(device).quarantined = true
		}
		for device, until := range st.Probation {
			if h := s.noteHistory(device); until > h.probationUntil {
				h.probationUntil = until
			}
		}
	}

	// Replay the committed rounds: trace entries always, model updates
	// for the rounds that applied one. ApplyUpdate is deterministic
	// float addition in commit order, so the recovered model is
	// bit-identical to the crashed process's.
	for _, c := range st.Closes {
		s.trace = append(s.trace, c.Stats)
		if !c.OK || c.Update == nil {
			continue
		}
		if len(c.Update) != len(s.state) {
			return nil, fmt.Errorf("%w: round %d update has %d tensors, model has %d", ErrJournalMismatch, c.Round, len(c.Update), len(s.state))
		}
		for i, u := range c.Update {
			if !u.SameShape(s.state[i]) {
				return nil, fmt.Errorf("%w: round %d update tensor %d shape %v, model %v", ErrJournalMismatch, c.Round, i, u.Shape, s.state[i].Shape)
			}
		}
		ApplyUpdate(s.state, c.Update, 1.0)
	}
	s.nextRound = st.NextRound

	// Fast-forward the sampling RNG: the crashed process drew one
	// roster-sized permutation per committed synchronous round
	// (sampling is always over the full roster — see sample). The
	// in-flight round's draw was never committed, so the re-run of
	// that round draws exactly the permutation the crashed process
	// used, and the cohort sequence continues unchanged.
	for i := 0; i < st.Draws; i++ {
		s.rng.Perm(len(s.roster))
	}
	if metrics != nil {
		metrics.Histogram("gradsec_journal_ns", "journal I/O latency in nanoseconds", "op", "replay").
			Observe(time.Since(replayStart).Nanoseconds())
	}
	return s, nil
}

// rosterEntry looks a device up in the recovered roster.
func (s *Server) rosterEntry(device string) *journal.Record {
	for _, ent := range s.roster {
		if ent.Device == device {
			return ent
		}
	}
	return nil
}

// NextRound returns the first round index the server will run: 0 for a
// fresh server, one past the last committed round after recovery.
func (s *Server) NextRound() int { return s.nextRound }

// deadConn fills the roster slot of a device that did not rejoin a
// resumed session: every operation fails, so any accidental use
// surfaces as a transport error rather than a hang.
type deadConn struct{}

var errDeadConn = errors.New("fl: device did not rejoin the resumed session")

func (deadConn) Send(Message) error              { return errDeadConn }
func (deadConn) SendFrame(MsgType, []byte) error { return errDeadConn }
func (deadConn) Recv() (Message, error)          { return nil, errDeadConn }
func (deadConn) SetCodec(wire.Codec)             {}
func (deadConn) SetSendCodec(wire.Codec)         {}
func (deadConn) SetRecvCodec(wire.Codec)         {}
func (deadConn) Close() error                    { return nil }
