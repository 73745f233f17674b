package fl

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
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

// secAggRoundState bundles one secure-aggregation round's mutable fold
// state so the arrival handler and the reconciliation phase share one
// view of it.
type secAggRoundState struct {
	graph        *secagg.Graph
	msum         *secagg.MaskedSum
	hasProtected bool
	folded       map[*session]bool
	// wrapped stores each folded client's wrapped self-seed shares,
	// owner → holder → blob, opaque to the server until reconciliation
	// forwards them to their holders.
	wrapped map[string]map[string][]byte
}

// runSecAggRound executes one secure-aggregation FL cycle on the same
// round skeleton as runRound — sample, distribute, fold until the
// deadline — but the server folds double-masked ring levels it cannot
// read, the sealed half of each update is aggregated inside the
// enclave, and the round ends with a reconciliation phase: survivors
// reveal their round-scoped pair seeds with dropped neighbours and
// their Shamir shares of folded neighbours' self-mask seeds, so both
// mask layers can be subtracted. In partial mode the cancelled ring
// sums are returned instead of being dequantised and applied.
func (s *Server) runSecAggRound(round int) (*Partial, error) {
	rd, err := s.openRound(round)
	if err != nil {
		return nil, err
	}
	defer rd.finish()

	protected, planBlob := s.cfg.Planner.PlanRound(round)
	var protIdx []int
	protectedMap := make(map[int]bool)
	for i := range s.state {
		if protected[i] {
			protIdx = append(protIdx, i)
			protectedMap[i] = true
		}
	}
	hasProtected := len(protIdx) > 0
	if hasProtected && s.cfg.Partials {
		s.closeRound(rd.stats, false, nil)
		return nil, ErrPartialProtected
	}
	if hasProtected && s.cfg.Enclave == nil {
		s.closeRound(rd.stats, false, nil)
		return nil, ErrSecAggNeedsEnclave
	}
	if hasProtected {
		shapes := make([][]int, len(protIdx))
		for k, id := range protIdx {
			shapes[k] = s.state[id].Shape
		}
		if err := s.cfg.Enclave.Begin(round, protIdx, shapes); err != nil {
			s.closeRound(rd.stats, false, nil)
			return nil, fmt.Errorf("fl: enclave round begin: %w", err)
		}
	}
	finished := false
	defer func() {
		if hasProtected && !finished {
			s.cfg.Enclave.Abort(round)
		}
	}()

	// The cohort roster travels with every ModelDown so each member can
	// derive its masks. It is identical for the whole cohort, so the
	// no-sealing broadcast stays encode-once per codec.
	names := deviceNames(rd.sampled)
	cohort := make([]secagg.Peer, len(rd.sampled))
	for i, sess := range rd.sampled {
		cohort[i] = secagg.Peer{Device: sess.device, Pub: sess.maskPub}
	}
	// The server derives the same deterministic graph every cohort
	// member derives from (round, roster) — no extra negotiation on the
	// wire, only the resolved degree riding ModelDown. A one-member
	// cohort's graph has no edges whatever the degree (auto resolves to
	// 0): no pairs, no self mask, nothing to reconcile.
	degree := s.cfg.MaskDegree
	if degree == secagg.AutoDegree {
		degree = secagg.DegreeFor(len(names))
	}
	graph, err := secagg.NewGraph(round, names, degree)
	if err != nil {
		s.closeRound(rd.stats, false, nil)
		return nil, fmt.Errorf("fl: deriving mask graph: %w", err)
	}

	// Distribute: without a protection plan every client receives the
	// shared frame; with one, each client's protected tensors are sealed
	// by the enclave on its own trusted channel.
	plain := make([]*tensor.Tensor, len(s.state))
	for i, p := range s.state {
		if !protectedMap[i] {
			plain[i] = p
		}
	}
	var sealedBlob []byte
	if hasProtected {
		sealedBlob = wire.EncodeSealedUpdate(protIdx, protTensors(s.state, protIdx))
	}
	down := &ModelDown{Round: round, Plain: plain, Plan: planBlob, Cohort: cohort, Trace: s.curTrace, MaskDegree: degree}
	s.distribute(rd, down,
		func(*session) bool { return hasProtected },
		func(sess *session) (*ModelDown, error) {
			sealed, err := s.cfg.Enclave.Seal(sess.device, sealedBlob)
			if err != nil {
				return nil, err
			}
			own := *down
			own.Sealed = sealed
			return &own, nil
		})

	msum := secagg.NewMaskedSum(s.state, protectedMap, s.cfg.SecAggScaleBits)
	s.ob.instrumentMaskedSum(msum)
	st := &secAggRoundState{
		graph:        graph,
		msum:         msum,
		hasProtected: hasProtected,
		folded:       make(map[*session]bool, len(rd.sampled)),
		wrapped:      make(map[string]map[string][]byte),
	}
	s.collect(rd, func(sess *session, msg Message) bool {
		switch m := msg.(type) {
		case *MaskedUp:
			if !s.admitUpdate(rd, sess, m.Round, "masked update") {
				return true
			}
			// The client applied the same clamped weight in the ring
			// before masking.
			if err := s.foldMasked(sess, round, m, updateWeight(m.Examples), st); err != nil {
				s.failClient(rd, sess, true, err)
				return true
			}
			st.folded[sess] = true
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
	rd.stats.Responded = msum.Count()
	rd.stats.WeightTotal = msum.Weight()

	if err := s.minClientsGate(rd, msum.Count()); err != nil {
		return nil, err
	}
	if err := s.releaseGate(rd, msum.Count()); err != nil {
		return nil, err
	}

	// Every folded update carries a self mask that only the cohort's
	// Shamir shares can remove, and every cohort member that did not
	// fold — straggler, quarantined or unreachable — left its pairwise
	// masks with the survivors dangling: reconcile before the sum is
	// readable.
	if graph.Degree() > 0 {
		var unfolded []string
		for _, sess := range rd.sampled {
			if !st.folded[sess] {
				unfolded = append(unfolded, sess.device)
				// From here the survivors reveal seeds for this round with
				// the unfolded members counted as dropped: any later update
				// from them for this round is refusable as
				// unmaskable-by-the-server (ErrLateAfterRecon), never
				// silently discarded.
				sess.reconDoneRound = round + 1
			}
		}
		ptRecon := s.ob.startPhase("reconcile", round)
		err := s.reconcile(rd, st, unfolded)
		ptRecon.end()
		if err != nil {
			s.closeRound(rd.stats, false, nil)
			return nil, err
		}
		// Reconciled counts reconciled dropouts — a full fold reports 0
		// even though its self masks were removed, keeping round traces
		// comparable with plaintext runs.
		rd.stats.Reconciled = len(unfolded)
	}

	if s.cfg.Partials {
		// Hierarchical edge: the shard's masks have cancelled (or been
		// reconciled), so the ring sums are clean partials that compose
		// additively in ℤ/2⁶⁴ at the root — which dequantises exactly
		// once over the whole fleet.
		s.closeRound(rd.stats, true, nil)
		return &Partial{Round: round, Levels: msum.Levels(), ScaleBits: s.cfg.SecAggScaleBits,
			Weight: msum.Weight(), Count: msum.Count(), Stats: rd.stats}, nil
	}

	ptClose := s.ob.startPhase("close", round)
	defer ptClose.end()
	mean, err := msum.Mean()
	if err != nil {
		s.closeRound(rd.stats, false, nil)
		return nil, err
	}
	if hasProtected {
		encMean, err := s.cfg.Enclave.Finish(round, msum.Count())
		if err != nil {
			s.closeRound(rd.stats, false, nil)
			return nil, fmt.Errorf("fl: enclave round finish: %w", err)
		}
		finished = true
		for k, id := range protIdx {
			mean[id] = encMean[k]
		}
	}
	s.applyMean(rd, mean)
	return nil, nil
}

// protTensors selects the protected tensors in index order.
func protTensors(state []*tensor.Tensor, idx []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(idx))
	for k, id := range idx {
		out[k] = state[id]
	}
	return out
}

// foldMasked validates and folds one masked update: levels into the
// masked sum, the sealed half into the enclave, the wrapped self-seed
// shares into the round's escrow. Validation precedes every mutation so
// a rejected update leaves all accumulators untouched and consistent
// with each other.
func (s *Server) foldMasked(sess *session, round int, m *MaskedUp, weight uint64, st *secAggRoundState) error {
	wrapped, err := validateShares(sess.device, m.Shares, st.graph)
	if err != nil {
		return err
	}
	if !st.hasProtected {
		if len(m.Sealed) > 0 {
			return errors.New("sealed payload in a round without protected tensors")
		}
	} else {
		// The level check must pass before the enclave folds, or the two
		// accumulators drift apart on a rejected update. Add's own repeat
		// of the validation cannot fail after this.
		if err := st.msum.Validate(m.Levels); err != nil {
			return err
		}
		if len(m.Sealed) == 0 {
			return errors.New("masked update missing its sealed protected half")
		}
		if err := s.cfg.Enclave.Fold(sess.device, round, m.Sealed, float64(weight)); err != nil {
			return err
		}
	}
	if err := st.msum.Add(m.Levels, weight); err != nil { // Add validates atomically
		return err
	}
	st.wrapped[sess.device] = wrapped
	return nil
}

// validateShares checks a masked update's wrapped self-seed shares
// against the round's mask graph before anything is folded: exactly one
// share per graph neighbour, none elsewhere, every blob the single
// valid length. Returns the shares keyed by holder.
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
	for _, ws := range shares {
		if !allowed[ws.To] || out[ws.To] != nil {
			return nil, fmt.Errorf("self-seed share addressed to %q outside the mask neighbourhood", ws.To)
		}
		if len(ws.Blob) != secagg.WrappedShareLen {
			return nil, fmt.Errorf("self-seed share for %q is %d bytes, want %d", ws.To, len(ws.Blob), secagg.WrappedShareLen)
		}
		out[ws.To] = ws.Blob
	}
	return out, nil
}

// reconExpect tracks what one folded survivor was asked for during
// reconciliation.
type reconExpect struct {
	dropped map[string]bool // dropped neighbours whose pair seeds it must reveal
	owners  map[string]bool // folded neighbours whose self-seed shares it may reveal
}

// reconcile runs the double-masking reconciliation. Per folded survivor
// the server sends one MaskRecon naming, among the survivor's graph
// neighbours only, (a) the dropped ones — their dangling pair masks
// must come off via revealed pair seeds — and (b) the folded ones, each
// with its wrapped self-seed share — their self masks must come off via
// Shamir reconstruction. Per peer a neighbour is asked for exactly one
// of the two (the client enforces the same exclusivity with
// ErrRoleConflict). The phase tolerates survivors vanishing — before it
// starts or in the middle of it — as long as (a) they owed no pair seeds
// and (b) every folded member still reaches its Shamir threshold;
// otherwise the round fails with ErrSecAggRecon and nothing is
// published.
func (s *Server) reconcile(rd *syncRound, st *secAggRoundState, unfolded []string) error {
	round, graph := rd.round, st.graph
	droppedSet := make(map[string]bool, len(unfolded))
	for _, d := range unfolded {
		droppedSet[d] = true
	}
	need := make(map[*session]*reconExpect, len(st.folded))
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

	for sess := range st.folded {
		exp := &reconExpect{dropped: make(map[string]bool), owners: make(map[string]bool)}
		req := &MaskRecon{Round: round}
		for _, p := range graph.Neighbors(sess.device) {
			if droppedSet[p] {
				exp.dropped[p] = true
				req.Dropped = append(req.Dropped, p)
				continue
			}
			if blob, ok := st.wrapped[p][sess.device]; ok {
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
	seedShares := make(map[string][]secagg.Share, len(st.folded))
	take := func(sess *session, msg Message) bool {
		switch m := msg.(type) {
		case *MaskShares:
			exp := need[sess]
			if m.Round != round || exp == nil {
				lose(sess, true, fmt.Errorf("unexpected mask shares for round %d", m.Round))
				break
			}
			delete(need, sess)
			if err := applyMaskShares(sess.device, m, exp, graph, st.msum, seedShares); err != nil {
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
	for sess := range st.folded {
		owner := sess.device
		seed, err := secagg.CombineSeed(seedShares[owner], threshold)
		if err != nil {
			return fmt.Errorf("%w: reconstructing self seed of %s from %d shares (threshold %d): %v",
				ErrSecAggRecon, owner, len(seedShares[owner]), threshold, err)
		}
		st.msum.ApplySeedMask(seed, -1)
	}
	return nil
}

// applyMaskShares validates and applies one survivor's MaskShares
// answer during reconciliation: pair seeds exactly covering
// its dropped neighbours are subtracted immediately; self-seed shares —
// at most one per folded neighbour it was sent an envelope for, with
// the x-coordinate pinned to the owner's share index for this holder —
// are banked for reconstruction. A client may return fewer seed shares
// than envelopes (corrupt blobs are withheld), never more.
func applyMaskShares(holder string, m *MaskShares, exp *reconExpect, graph *secagg.Graph, msum *secagg.MaskedSum, seedShares map[string][]secagg.Share) error {
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
		msum.ApplySeedMask(share.Seed, -secagg.PairSign(holder, share.Device))
	}
	for _, ss := range m.SeedShares {
		seedShares[ss.Owner] = append(seedShares[ss.Owner], secagg.Share{X: ss.X, Data: ss.Data})
	}
	return nil
}
