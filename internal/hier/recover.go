package hier

import (
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
)

// ErrRootJournalMismatch rejects a root journal whose session
// fingerprint disagrees with the configuration handed to RecoverRoot.
var ErrRootJournalMismatch = fl.ErrJournalMismatch

// RecoverRoot rebuilds a crashed hierarchy root from its journal
// (fl.Recover over the root's engine configuration): the committed
// rounds' fleet means replay onto the initial model (state must hold
// the values the crashed root was constructed with), the trace is
// restored, and Run resumes at the first uncommitted round. Edges
// re-enrol through Run as usual — their own shard journals carry the
// per-client standing.
func RecoverRoot(path string, state []*tensor.Tensor, cfg RootConfig) (*Root, error) {
	srv, err := fl.Recover(path, state, cfg.serverConfig())
	if err != nil {
		return nil, err
	}
	return &Root{srv}, nil
}

// RecoverEdge returns an edge aggregator that rebuilds its crashed
// predecessor from the shard journal at path (EdgeConfig.Server.Journal
// written by a previous run). Run replays it once the root's enrolment
// challenge has fixed the shard's mode, so the journal fingerprint is
// validated (fl.Recover, ErrRootJournalMismatch) against the
// configuration every edge adopts from the root — the resolved
// precision and mask degree included — plus cfg.Server's seed and
// horizon. The shard server comes back with its roster,
// quarantine/probation standing and round position intact, resumes the
// shard session — matching rejoining clients against the journaled
// roster instead of re-attesting — and the root paces it from the next
// uncommitted round.
func RecoverEdge(path string, state []*tensor.Tensor, cfg EdgeConfig) *Edge {
	e := NewEdge(state, cfg)
	e.journal = path
	return e
}
