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
	return newRoot(srv, cfg), nil
}

// RecoverEdge rebuilds a crashed edge aggregator from its shard
// journal (EdgeConfig.Server.Journal written by a previous run). The
// shard server comes back with its roster, quarantine/probation
// standing, and round position intact; Run then resumes the shard
// session — matching rejoining clients against the journaled roster
// instead of re-attesting — and re-enrols with the root, which paces
// it from the next uncommitted round. cfg.Server must carry the same
// mode flags (SecAgg, scale bits, seed) the crashed edge ran with;
// the journal fingerprint is validated against it.
func RecoverEdge(path string, state []*tensor.Tensor, cfg EdgeConfig) (*Edge, error) {
	scfg := cfg.Server
	scfg.Partials = true
	srv, err := fl.Recover(path, state, scfg)
	if err != nil {
		return nil, err
	}
	e := NewEdge(state, cfg)
	e.srv = srv
	return e, nil
}
