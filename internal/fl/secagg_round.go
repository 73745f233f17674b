package fl

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
)

// Secure-aggregation errors.
var (
	// ErrSecAggNeedsEnclave is returned when the planner protects
	// tensors in a SecAgg session but no aggregation enclave is
	// configured — the server must never unseal protected updates into
	// plaintext itself.
	ErrSecAggNeedsEnclave = errors.New("fl: protection plan requires an aggregation enclave in secure-aggregation mode")
	// ErrSecAggRecon is returned when mask reconciliation cannot
	// complete: a surviving cohort member failed to reveal its round
	// seeds with the dropped clients, leaving the folded sum masked.
	ErrSecAggRecon = errors.New("fl: secure-aggregation mask reconciliation failed")
	// ErrPartialProtected is returned when a hierarchical edge in
	// secure-aggregation mode is given a protecting planner: sealed
	// halves aggregate inside the root's enclave, which a shard partial
	// cannot carry.
	ErrPartialProtected = errors.New("fl: hierarchical secure-aggregation partials cannot carry protected tensors")
	// ErrLateAfterRecon is returned (through the quarantine/probation
	// machinery) when a device delivers an update for a round whose
	// masks were already reconciled with that device counted as dropped.
	// The survivors revealed their pair seeds with it for that round, so
	// a server holding this update could strip its masks and read it —
	// the exact hole silent discarding left open. The update is refused
	// and the device sanctioned (probation under QuarantineRounds,
	// permanent quarantine otherwise).
	ErrLateAfterRecon = errors.New("fl: update arrived after its round's masks were reconciled")
	// ErrBadMaskDegree is returned by Validate for a negative MaskDegree: 0
	// sizes the mask graph from the cohort and a positive value pins it;
	// there is no third regime.
	ErrBadMaskDegree = errors.New("fl: MaskDegree must be 0 (automatic) or a positive graph degree")
)

// maskedRound is a masked round's accumulator: the MaskedSum the ring
// levels fold into, the enclave half the sealed protected tensors fold
// into (open while enclave is set), the round's mask graph, and the
// escrow of wrapped self-seed shares reconciliation forwards. An
// edge-peer tier composes its shards' masked partials into one with no
// graph: their masks already cancelled below.
type maskedRound struct {
	*secagg.MaskedSum
	round   int
	enclave *secagg.Enclave
	protIdx []int
	graph   *secagg.Graph
	folded  map[*session]bool
	// wrapped stores each folded client's wrapped self-seed shares,
	// owner → holder → blob, opaque to the server until reconciliation
	// forwards them to their holders.
	wrapped map[string]map[string][]byte
}

// openMasked opens a masked device round once its cohort is drawn: the
// server folds double-masked ring levels it cannot read, and the sealed
// half of each update is aggregated inside the enclave. It derives the
// mask graph, begins the enclave half when the plan protects tensors,
// and distributes the ModelDown carrying the roster and the resolved
// degree under the sealing rule.
func (s *Server) openMasked(rd *syncRound) (*maskedRound, error) {
	down, idx := s.planRound(rd)
	if len(idx) > 0 && s.cfg.Partials {
		return nil, ErrPartialProtected
	}
	if len(idx) > 0 && s.cfg.Enclave == nil {
		return nil, ErrSecAggNeedsEnclave
	}
	// The cohort roster travels with every ModelDown so each member can
	// derive its masks, and the server derives the same deterministic
	// graph from (round, roster) — no extra negotiation on the wire, only
	// the resolved degree riding ModelDown. A one-member cohort's graph
	// has no edges whatever the degree (auto resolves to 0): no pairs, no
	// self mask, nothing to reconcile.
	names := deviceNames(rd.sampled)
	for _, sess := range rd.sampled {
		down.Cohort.Append(sess.device, sess.maskPub)
	}
	down.MaskDegree = s.cfg.MaskDegree
	if down.MaskDegree == secagg.AutoDegree {
		down.MaskDegree = secagg.DegreeFor(len(names))
	}
	graph, err := secagg.NewGraph(rd.round, names, down.MaskDegree)
	if err != nil {
		return nil, fmt.Errorf("fl: deriving mask graph: %w", err)
	}
	protected := make(map[int]bool, len(idx))
	shapes := make([][]int, len(idx))
	for k, id := range idx {
		protected[id], shapes[k] = true, s.state[id].Shape
	}
	mr := &maskedRound{
		MaskedSum: secagg.NewMaskedSum(s.state, protected, s.cfg.SecAggScaleBits),
		round:     rd.round,
		graph:     graph,
		folded:    make(map[*session]bool, len(rd.sampled)),
		wrapped:   make(map[string]map[string][]byte),
	}
	s.ob.instrumentMaskedSum(mr.MaskedSum)
	if len(idx) > 0 {
		if err := s.cfg.Enclave.Begin(rd.round, idx, shapes); err != nil {
			return nil, fmt.Errorf("fl: enclave round begin: %w", err)
		}
		mr.enclave, mr.protIdx = s.cfg.Enclave, idx
	}
	rd.protect(down, idx)
	s.distribute(rd, down)
	return mr, nil
}

// collectMasked is a masked round's collect: each pending client's
// MaskedUp for this round folds (foldMasked); a plaintext GradUp is
// refused.
func (s *Server) collectMasked(rd *syncRound, mr *maskedRound) {
	s.collect(rd, func(sess *session, msg Message) bool {
		switch m := msg.(type) {
		case *MaskedUp:
			if !s.admitUpdate(rd, sess, m.Round, "masked update") {
				return true
			}
			if err := s.foldMasked(sess, m, mr); err != nil {
				s.failClient(rd, sess, true, err)
				return true
			}
			mr.folded[sess] = true
			s.noteFolded(rd, sess)
			return true
		case *GradUp:
			// A plaintext update has no business in a secure-aggregation
			// session and is refused like any unexpected message; one for
			// an already-reconciled round is additionally the unmasking
			// hazard and carries the typed error.
			if m.Round < sess.reconDoneRound {
				s.failClient(rd, sess, true, fmt.Errorf("%w: plaintext update for round %d", ErrLateAfterRecon, m.Round))
				return true
			}
		}
		return false
	})
}

// Mean dequantises the reconciled ring sums and splices in the enclave's
// mean over the protected positions, which finishes the enclave half.
func (mr *maskedRound) Mean() ([]*tensor.Tensor, error) {
	mean, err := mr.MaskedSum.Mean()
	if err != nil || mr.enclave == nil {
		return mean, err
	}
	encMean, err := mr.enclave.Finish(mr.round, mr.Count())
	if err != nil {
		return nil, fmt.Errorf("fl: enclave round finish: %w", err)
	}
	mr.enclave = nil
	for k, id := range mr.protIdx {
		mean[id] = encMean[k]
	}
	return mean, nil
}

// abort releases an enclave half the round began and never finished.
func (mr *maskedRound) abort() {
	if mr.enclave != nil {
		mr.enclave.Abort(mr.round)
	}
}

// foldMasked validates and folds one masked update: levels into the
// masked sum, the sealed half into the enclave, the wrapped self-seed
// shares into the round's escrow. The client applied the same clamped
// weight in the ring before masking. Validation precedes every mutation
// so a rejected update leaves all accumulators untouched and consistent
// with each other.
func (s *Server) foldMasked(sess *session, m *MaskedUp, mr *maskedRound) error {
	weight := updateWeight(m.Examples)
	wrapped, err := validateShares(sess.device, m.Shares, mr.graph)
	if err != nil {
		return err
	}
	if mr.enclave == nil {
		if len(m.Sealed) > 0 {
			return errors.New("sealed payload in a round without protected tensors")
		}
	} else {
		// The level check must pass before the enclave folds, or the two
		// accumulators drift apart on a rejected update. Add's own repeat
		// of the validation cannot fail after this.
		if err := mr.Validate(m.Levels); err != nil {
			return err
		}
		if len(m.Sealed) == 0 {
			return errors.New("masked update missing its sealed protected half")
		}
		if err := mr.enclave.Fold(sess.device, mr.round, m.Sealed, float64(weight)); err != nil {
			return err
		}
	}
	if err := mr.Add(m.Levels, weight); err != nil { // Add validates atomically
		return err
	}
	mr.wrapped[sess.device] = wrapped
	return nil
}

// validateShares checks a masked update's wrapped self-seed shares
// against the round's mask graph before anything is folded: exactly one
// share per graph neighbour, none elsewhere, every blob the single
// valid length. Returns the shares keyed by holder, copied out of the
// frame they were decoded from — escrow outlives the update's lease.
func validateShares(device string, shares []secagg.WrappedShare, graph *secagg.Graph) (map[string][]byte, error) {
	neigh := graph.Neighbors(device)
	if len(shares) != len(neigh) {
		return nil, fmt.Errorf("masked update carries %d self-seed shares, graph degree is %d", len(shares), len(neigh))
	}
	allowed := make(map[string]bool, len(neigh))
	for _, d := range neigh {
		allowed[d] = true
	}
	out := make(map[string][]byte, len(shares))
	escrow := make([]byte, 0, len(shares)*secagg.WrappedShareLen)
	for _, ws := range shares {
		if !allowed[ws.To] || out[ws.To] != nil {
			return nil, fmt.Errorf("self-seed share addressed to %q outside the mask neighbourhood", ws.To)
		}
		if len(ws.Blob) != secagg.WrappedShareLen {
			return nil, fmt.Errorf("self-seed share for %q is %d bytes, want %d", ws.To, len(ws.Blob), secagg.WrappedShareLen)
		}
		escrow = append(escrow, ws.Blob...)
		out[ws.To] = escrow[len(escrow)-secagg.WrappedShareLen:]
	}
	return out, nil
}

// reconExpect tracks what one folded survivor was asked for during
// reconciliation.
type reconExpect struct {
	dropped map[string]bool // dropped neighbours whose pair seeds it must reveal
	owners  map[string]bool // folded neighbours whose self-seed shares it may reveal
}

// reconcile runs the double-masking reconciliation of a masked round
// whose graph has edges, inside the reconcile phase: every folded update
// carries a self mask that only the cohort's Shamir shares can remove,
// and every cohort member that did not fold — straggler, quarantined or
// unreachable — left its pairwise masks with the survivors dangling.
// Per folded survivor the server sends one MaskRecon naming, among the
// survivor's graph neighbours only, (a) the dropped ones — their
// dangling pair masks must come off via revealed pair seeds — and (b)
// the folded ones, each with its wrapped self-seed share — their self
// masks must come off via Shamir reconstruction. Per peer a neighbour is
// asked for exactly one of the two (the client enforces the same
// exclusivity with ErrRoleConflict). The phase tolerates survivors
// vanishing — before it starts or in the middle of it — as long as (a)
// they owed no pair seeds and (b) every folded member still reaches its
// Shamir threshold; otherwise the round fails with ErrSecAggRecon and
// nothing is published. Reconciled counts the reconciled dropouts — a
// full fold reports 0 even though its self masks were removed, keeping
// round traces comparable with plaintext runs.
func (s *Server) reconcile(rd *syncRound, mr *maskedRound) error {
	round, graph := rd.round, mr.graph
	if graph == nil || graph.Degree() == 0 {
		return nil
	}
	droppedSet := make(map[string]bool)
	for _, sess := range rd.sampled {
		if !mr.folded[sess] {
			droppedSet[sess.device] = true
			// From here the survivors reveal seeds for this round with the
			// unfolded members counted as dropped: any later update from
			// them for this round is refusable as unmaskable-by-the-server
			// (ErrLateAfterRecon), never silently discarded.
			sess.reconDoneRound = round + 1
		}
	}
	ptRecon := s.ob.startPhase("reconcile", round)
	defer ptRecon.end()
	need := make(map[*session]*reconExpect, len(mr.folded))
	// lose is reconciliation's sanction for a survivor that can no longer
	// answer (transport gone, protocol fault), and decides whether the
	// round survives it: fatal while it still owes pair seeds (they are
	// held by nobody else), survivable when it only owed self-seed shares
	// (the threshold check at the end decides).
	var fatal error
	lose := func(sess *session, probationable bool, reason error) {
		exp := need[sess]
		delete(need, sess)
		s.quarantineAt(sess, round, probationable, reason, &rd.stats, &rd.reasons)
		if exp != nil && len(exp.dropped) > 0 {
			fatal = fmt.Errorf("%w: survivor %s lost before revealing pair seeds: %v", ErrSecAggRecon, sess.device, reason)
		}
	}

	for sess := range mr.folded {
		exp := &reconExpect{dropped: make(map[string]bool), owners: make(map[string]bool)}
		req := &MaskRecon{Round: round}
		for _, p := range graph.Neighbors(sess.device) {
			if droppedSet[p] {
				exp.dropped[p] = true
				req.Dropped = append(req.Dropped, p)
				continue
			}
			if blob, ok := mr.wrapped[p][sess.device]; ok {
				exp.owners[p] = true
				req.Survivors = append(req.Survivors, secagg.SeedEnvelope{Owner: p, Blob: blob})
			}
		}
		if len(req.Dropped) == 0 && len(req.Survivors) == 0 {
			continue // nothing to ask this survivor
		}
		need[sess] = exp
		// A survivor whose connection already failed after its update
		// folded is lost under the same rule as one that vanishes while
		// the phase runs.
		var sendErr error
		if sess.quarantined {
			sendErr = errors.New("connection lost after its update folded")
		} else {
			sendErr = sess.conn.Send(req)
		}
		if sendErr != nil {
			lose(sess, false, fmt.Errorf("transport: %w", sendErr))
			if fatal != nil {
				return fatal
			}
		}
	}

	var deadlineC <-chan time.Time
	if s.cfg.RoundDeadline > 0 {
		timer := s.cfg.Clock.NewTimer(s.cfg.RoundDeadline)
		defer timer.Stop()
		deadlineC = timer.C
	}
	seedShares := make(map[string][]secagg.Share, len(mr.folded))
	// masks collects every seed to strip — revealed pair seeds as the
	// answers validate, then the reconstructed self seeds — and nothing
	// touches the sum until the round can no longer fail.
	var masks []secagg.SeedMask
	take := func(sess *session, msg Message) bool {
		switch m := msg.(type) {
		case *MaskShares:
			exp := need[sess]
			if m.Round != round || exp == nil {
				lose(sess, true, fmt.Errorf("unexpected mask shares for round %d", m.Round))
				break
			}
			delete(need, sess)
			if err := applyMaskShares(sess.device, m, exp, graph, &masks, seedShares); err != nil {
				s.quarantineAt(sess, round, true, err, &rd.stats, &rd.reasons)
				fatal = fmt.Errorf("%w: shares from %s: %v", ErrSecAggRecon, sess.device, err)
			}
		case *MaskedUp:
			switch {
			case m.Round < sess.reconDoneRound:
				// A dropped straggler racing the reconciliation: its
				// neighbours are revealing pair seeds for this round
				// right now, so its update must be refused with the
				// typed error — a curious server could unmask it.
				lose(sess, true, fmt.Errorf("%w: masked update for round %d", ErrLateAfterRecon, m.Round))
			case m.Round <= round:
				// Folded members' stale duplicates stay plain late
				// discards.
				rd.stats.LateDiscarded++
			default:
				lose(sess, true, fmt.Errorf("masked update for future round %d", m.Round))
			}
		default:
			return false
		}
		return true
	}
wait:
	for len(need) > 0 {
		select {
		case a := <-s.arrivals:
			s.handleArrival(a, lose, take)
			if fatal != nil {
				return fatal
			}
		case <-deadlineC:
			var missing []string
			mustFail := false
			for sess, exp := range need {
				missing = append(missing, sess.device)
				if len(exp.dropped) > 0 {
					mustFail = true
				}
			}
			if mustFail {
				sort.Strings(missing)
				return fmt.Errorf("%w: timed out waiting for shares from %s", ErrSecAggRecon, strings.Join(missing, ", "))
			}
			// Every missing answer only carried self-seed shares; fall
			// through to the threshold check with what arrived.
			break wait
		}
	}

	// Second half of the double mask: reconstruct every folded member's
	// self seed from ≥ threshold neighbour shares and subtract its
	// expansion. Short of threshold the sum stays opaque — fail the
	// round rather than publish masked data.
	threshold := graph.Threshold()
	for sess := range mr.folded {
		owner := sess.device
		seed, err := secagg.CombineSeed(seedShares[owner], threshold)
		if err != nil {
			return fmt.Errorf("%w: reconstructing self seed of %s from %d shares (threshold %d): %v",
				ErrSecAggRecon, owner, len(seedShares[owner]), threshold, err)
		}
		masks = append(masks, secagg.SeedMask{Seed: seed, Sign: -1})
	}
	mr.ApplySeedMasks(masks)
	rd.stats.Reconciled = len(droppedSet)
	return nil
}

// applyMaskShares validates and banks one survivor's MaskShares answer
// during reconciliation: pair seeds exactly covering its dropped
// neighbours join masks, oriented to come off the sum; self-seed shares
// — at most one per folded neighbour it was sent an envelope for, with
// the x-coordinate pinned to the owner's share index for this holder —
// are banked for reconstruction. A client may return fewer seed shares
// than envelopes (corrupt blobs are withheld), never more. An answer
// that fails validation banks nothing.
func applyMaskShares(holder string, m *MaskShares, exp *reconExpect, graph *secagg.Graph, masks *[]secagg.SeedMask, seedShares map[string][]secagg.Share) error {
	if len(m.Shares) != len(exp.dropped) {
		return fmt.Errorf("revealed %d pair seeds, want %d", len(m.Shares), len(exp.dropped))
	}
	seenPair := make(map[string]bool, len(m.Shares))
	for _, share := range m.Shares {
		if !exp.dropped[share.Device] || seenPair[share.Device] {
			return fmt.Errorf("pair seed for unexpected peer %q", share.Device)
		}
		seenPair[share.Device] = true
	}
	seenOwner := make(map[string]bool, len(m.SeedShares))
	for _, ss := range m.SeedShares {
		if !exp.owners[ss.Owner] || seenOwner[ss.Owner] {
			return fmt.Errorf("self-seed share for unexpected owner %q", ss.Owner)
		}
		seenOwner[ss.Owner] = true
		// The x-coordinate is not holder-chosen: it is the holder's index
		// in the owner's neighbour list, fixed by the graph. A swapped or
		// invented x would poison the Lagrange interpolation with a valid-
		// looking share — reject it as a protocol fault instead.
		if want := graph.ShareIndex(ss.Owner, holder); int(ss.X) != want {
			return fmt.Errorf("self-seed share for %q carries x=%d, holder index is %d", ss.Owner, ss.X, want)
		}
		if len(ss.Data) != secagg.SeedShareLen {
			return fmt.Errorf("self-seed share for %q has %d data bytes", ss.Owner, len(ss.Data))
		}
	}
	for _, share := range m.Shares {
		*masks = append(*masks, secagg.SeedMask{Seed: share.Seed, Sign: -secagg.PairSign(holder, share.Device)})
	}
	for _, ss := range m.SeedShares {
		seedShares[ss.Owner] = append(seedShares[ss.Owner], secagg.Share{X: ss.X, Data: ss.Data})
	}
	return nil
}
