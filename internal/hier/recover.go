package hier

import (
	"github.com/gradsec/gradsec/internal/tensor"
)

// RecoverEdge returns an edge aggregator that rebuilds its crashed
// predecessor from the shard journal at path (EdgeConfig.Server.Journal
// written by a previous run). Run replays it once the root's enrolment
// challenge has fixed the shard's mode, so the journal fingerprint is
// validated (fl.Recover, fl.ErrJournalMismatch) against the
// configuration every edge adopts from the root — the resolved
// precision and mask degree included — plus cfg.Server's seed and
// horizon. The shard server comes back with its roster,
// quarantine/probation standing and round position intact, resumes the
// shard session — matching rejoining clients against the journaled
// roster instead of re-attesting — and the root paces it from the next
// uncommitted round. A crashed root recovers as any fl.Server does,
// with fl.Recover over its engine configuration.
func RecoverEdge(path string, state []*tensor.Tensor, cfg EdgeConfig) *Edge {
	e := NewEdge(state, cfg)
	e.journal = path
	return e
}
