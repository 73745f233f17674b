package fl

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tz"
)

// Open admits the session's peers over the given connections and starts
// their per-connection readers; it returns the number admitted, and on
// error no session is open. A fresh server verifies each peer
// (selectOne). A server rebuilt by Recover resumes instead: each device
// must be a member of the journaled roster and rejoins without
// re-attesting, and the session is rebuilt in roster order, a member
// that stays away keeping its slot as a dead placeholder so the
// roster-sized sampling permutation indexes the same space as before the
// crash. Either way standing carries over and MinClients must be met.
// Most callers use Run — Open/StepRound/Close expose the round lifecycle
// to callers that pace rounds externally, such as hierarchical edge
// aggregators driven by their root.
func (s *Server) Open(conns []Conn) (int, error) {
	if s.opened {
		return 0, errors.New("fl: session already open")
	}
	if err := s.cfg.Validate(); err != nil {
		return 0, err
	}
	resumed := s.roster != nil
	// Pairwise masking keys a mask to each device name: a duplicate name
	// would make two clients derive colliding pair signs — an edge's name
	// is its shard identity, and a roster slot holds one device — so
	// later duplicates are turned away (selection order is the input
	// order, hence deterministic).
	unique := resumed || s.cfg.SecAgg || s.cfg.EdgePeers
	seen := make(map[string]bool, len(conns))
	var sessions []*session
	for _, sess := range s.selectClients(conns) {
		// Standing from earlier sessions of this server, or from before
		// the crash, carries over: a quarantined device stays out, an
		// unserved probation window is restored.
		h := s.history[sess.device]
		switch {
		case h != nil && h.quarantined:
			s.reject(sess.conn, "device quarantined in an earlier session")
		case unique && seen[sess.device]:
			s.reject(sess.conn, fmt.Sprintf("duplicate name %q in the session", sess.device))
		default:
			if h != nil {
				sess.probationUntil = h.probationUntil
			}
			seen[sess.device] = true
			sessions = append(sessions, sess)
		}
	}
	if s.cfg.MinClients == 0 {
		// Edge peers, "every edge": whatever enrolled defines the floor
		// — but never less than one shard.
		s.cfg.MinClients = max(1, len(sessions))
	}
	n := len(sessions)
	if n < s.cfg.MinClients {
		for _, sess := range sessions {
			s.reject(sess.conn, "not enough clients passed selection")
		}
		return n, fmt.Errorf("%w: %d admitted, need %d", ErrNotEnoughClients, n, s.cfg.MinClients)
	}
	if resumed {
		sessions = s.inRosterOrder(sessions)
		s.roster = nil // a later session selects afresh
	} else {
		s.journalSessionOpen(sessions)
	}
	s.startSession(sessions)
	return n, nil
}

// inRosterOrder lays the rejoined sessions out in the recovered
// roster's order, a dead placeholder — invisible to live() and Close —
// in the slot of every member that did not rejoin.
func (s *Server) inRosterOrder(rejoined []*session) []*session {
	byName := make(map[string]*session, len(rejoined))
	for _, sess := range rejoined {
		byName[sess.device] = sess
	}
	out := make([]*session, len(s.roster))
	for i, ent := range s.roster {
		if out[i] = byName[ent.Device]; out[i] == nil {
			out[i] = &session{conn: deadConn{}, device: ent.Device, quarantined: true}
		}
	}
	return out
}

// startSession brings an admitted roster live. One reader per reachable
// member feeds a shared arrival channel so a straggler's late reply can
// surface (and be discarded) during any later round instead of
// desynchronising the protocol. In asynchronous
// mode the channel is the bounded fan-in buffer: when it fills, the
// per-connection readers block — backpressure propagates to the
// transports instead of growing server memory.
func (s *Server) startSession(sessions []*session) {
	buffer := len(sessions)
	if s.cfg.Async.Enabled && s.cfg.Async.Buffer < buffer {
		buffer = s.cfg.Async.Buffer
	}
	s.sessions = sessions
	s.arrivals = make(chan arrival, buffer)
	s.done = make(chan struct{})
	reachable := 0
	for _, sess := range sessions {
		if !sess.quarantined { // a resumed roster's dead placeholder
			s.startReader(sess)
			reachable++
		}
	}
	s.opened = true
	s.shut = false
	// Selection handshakes are session setup, not round traffic: rebase
	// the meter so the first round's byte deltas start clean.
	s.ob.resetMeterBase()
	s.health.open.Store(true)
	s.health.roster.Store(int64(reachable))
	s.health.round.Store(int64(s.nextRound))
}

// journalSessionOpen writes the session fingerprint and the roster, in
// selection order, through the journal. The order is load-bearing:
// cohort sampling permutes roster indices, so recovery must rebuild the
// roster in exactly this order.
func (s *Server) journalSessionOpen(sessions []*session) {
	if s.cfg.Journal == nil {
		return
	}
	s.journalAppend(&journal.Record{
		Type:   journal.RecSession,
		Flags:  s.sessionFlags(),
		Seed:   s.cfg.SampleSeed,
		Rounds: s.cfg.Rounds,
		Scale:  s.cfg.SecAggScaleBits,
		Floor:  s.cfg.MinRelease,
	})
	for _, sess := range sessions {
		s.journalAppend(rosterRecord(sess))
	}
	if s.cfg.MinRelease > 0 {
		s.journalAppend(&journal.Record{Type: journal.RecFloor, Floor: s.cfg.MinRelease})
	}
	_ = s.cfg.Journal.Sync()
}

// sessionFlags is the journaled fingerprint of the session mode, which
// Recover validates the recovering configuration against.
func (s *Server) sessionFlags() uint64 {
	var flags uint64
	if s.cfg.SecAgg {
		flags |= journal.FlagSecAgg
	}
	if s.cfg.Partials {
		flags |= journal.FlagPartials
	}
	if s.cfg.Async.Enabled {
		flags |= journal.FlagAsync
	}
	if s.cfg.RequireTEE {
		flags |= journal.FlagRequireTEE
	}
	if s.cfg.EdgePeers {
		flags |= journal.FlagEdgePeers
	}
	return flags
}

// rosterRecord is one peer's journaled admission.
func rosterRecord(sess *session) *journal.Record {
	return &journal.Record{
		Type:    journal.RecRoster,
		Device:  sess.device,
		Codec:   uint8(sess.codec),
		Cap:     uint8(sess.cap),
		HasTEE:  sess.hasTEE,
		MaskPub: sess.maskPub,
	}
}

// journalAppend writes one record when a journal is configured. A
// failure sticks in Journal.Err, which the round reports once it is over
// (journalErr): a round is never cut short half-committed.
func (s *Server) journalAppend(rec *journal.Record) {
	if s.cfg.Journal != nil {
		_ = s.cfg.Journal.Append(rec)
	}
}

// journalErr returns the journal's sticky error, nil without a journal.
func (s *Server) journalErr() error {
	if s.cfg.Journal == nil {
		return nil
	}
	return s.cfg.Journal.Err()
}

// admit enrols further edge peers into the open session between rounds
// (ServerConfig.Rejoin): a name still live in the session is turned
// away, the rest join the roster.
func (s *Server) admit(conns []Conn) {
	for _, sess := range s.selectClients(conns) {
		live := false
		for _, other := range s.sessions {
			live = live || (!other.quarantined && other.device == sess.device)
		}
		if live {
			s.reject(sess.conn, fmt.Sprintf("edge %q is already enrolled", sess.device))
			continue
		}
		s.journalAppend(rosterRecord(sess))
		s.sessions = append(s.sessions, sess)
		s.health.roster.Add(1)
		s.startReader(sess)
	}
}

// selectWorkers bounds the parallel attestation pool during client
// selection.
const selectWorkers = 8

// selectClients performs Fig. 2 step 1 — challenge, attestation
// verification, trusted-channel establishment — across a bounded worker
// pool. Clients that fail are rejected individually; input order is
// preserved so sampling stays deterministic.
func (s *Server) selectClients(conns []Conn) []*session {
	results := make([]*session, len(conns))
	workers := min(selectWorkers, len(conns))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = s.selectOne(conns[i])
			}
		}()
	}
	for i := range conns {
		work <- i
	}
	close(work)
	wg.Wait()

	var out []*session
	for _, sess := range results {
		if sess != nil {
			out = append(out, sess)
		}
	}
	return out
}

// selectOne runs the selection handshake with a single connection,
// returning nil when the client is rejected or unreachable. On
// deadline-capable transports the whole handshake is bounded by
// IOTimeout; afterwards only writes stay bounded, since reads are paced
// by the round deadline.
func (s *Server) selectOne(conn Conn) *session {
	SetMeter(conn, s.ob.wireMeter())
	dc, hasDeadlines := conn.(DeadlineConn)
	if hasDeadlines && s.cfg.IOTimeout > 0 {
		dc.SetReadTimeout(s.cfg.IOTimeout)
		dc.SetWriteTimeout(s.cfg.IOTimeout)
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		s.reject(conn, fmt.Sprintf("generating nonce: %v", err))
		return nil
	}
	// In enclave-backed secure-aggregation sessions the trusted-channel
	// offer is generated inside the enclave, so the private half (and
	// later the channel keys) never exist in server memory.
	enclaved := s.cfg.SecAgg && s.cfg.Enclave != nil
	var offer *tz.ChannelOffer
	var offerID uint64
	var serverPub []byte
	establishedOffer := false
	if enclaved {
		var err error
		offerID, serverPub, err = s.cfg.Enclave.NewOffer()
		if err != nil {
			s.reject(conn, fmt.Sprintf("enclave channel offer: %v", err))
			return nil
		}
		// A handshake that fails before establishment must not leak the
		// offer in the enclave for the life of the process.
		defer func() {
			if !establishedOffer {
				s.cfg.Enclave.DiscardOffer(offerID)
			}
		}()
	} else {
		var err error
		offer, err = tz.NewChannelOffer()
		if err != nil {
			s.reject(conn, fmt.Sprintf("channel offer: %v", err))
			return nil
		}
		serverPub = offer.Public
	}
	ch := &Challenge{Nonce: nonce, ServerPub: serverPub, RequireTEE: s.cfg.RequireTEE, Codec: s.cfg.Codec}
	if s.cfg.SecAgg {
		ch.SecAgg = true
		ch.ScaleBits = uint8(s.cfg.SecAggScaleBits)
		ch.MaskDegree = s.cfg.MaskDegree
		if enclaved {
			// The quote covers nonce ‖ offered channel key, binding the
			// enclave identity to the key clients will seal against.
			quote, err := s.cfg.Enclave.Attest(secagg.AggQuoteNonce(nonce, serverPub))
			if err != nil {
				s.reject(conn, fmt.Sprintf("enclave attestation: %v", err))
				return nil
			}
			ch.AggQuote = quote
		}
	}
	if err := conn.Send(ch); err != nil {
		_ = conn.Close()
		return nil
	}
	msg, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		return nil
	}
	att, ok := msg.(*Attest)
	if !ok {
		s.reject(conn, fmt.Sprintf("sent %T instead of Attest", msg))
		return nil
	}
	if !att.Codec.Valid() || att.Codec > s.cfg.Codec {
		s.reject(conn, fmt.Sprintf("codec %s exceeds offered %s", att.Codec, s.cfg.Codec))
		return nil
	}
	if !att.Cap.Valid() {
		att.Cap = att.Codec // an unknown claimed cap is no cap at all
	}
	if s.cfg.EdgePeers && att.DeviceID == "" {
		s.reject(conn, "edge enrolment without a name") // the name is the shard identity
		return nil
	}
	if s.roster != nil {
		// Resumption: the device must be a member of the journaled
		// roster — its admission (including attestation) was already
		// journaled by the crashed process, so it rejoins without
		// re-attesting. The trust model is explicit: the journal is as
		// trusted as the server host that wrote it. Unknown devices and
		// devices the crashed session quarantined are turned away.
		ent := s.rosterEntry(att.DeviceID)
		if ent == nil {
			s.reject(conn, "device is not a member of the resumed session")
			return nil
		}
		if h := s.history[att.DeviceID]; h != nil && h.quarantined {
			s.reject(conn, "device was quarantined before the crash")
			return nil
		}
		if s.cfg.RequireTEE && !att.HasTEE {
			s.reject(conn, "device has no TEE")
			return nil
		}
	} else if s.cfg.RequireTEE {
		if !att.HasTEE {
			s.reject(conn, "device has no TEE")
			return nil
		}
		if err := s.cfg.Verifier.Verify(att.Quote, nonce); err != nil {
			s.reject(conn, fmt.Sprintf("attestation failed: %v", err))
			return nil
		}
	}
	if s.cfg.SecAgg && !s.cfg.EdgePeers { // mask rosters are shard-scoped: an edge holds no mask key
		if att.DeviceID == "" {
			// The name is the client's place in the mask graph, and every
			// client refuses a roster holding an empty one.
			s.reject(conn, "secure aggregation requires a device name")
			return nil
		}
		if len(att.MaskPub) == 0 {
			s.reject(conn, "secure aggregation requires a mask public key")
			return nil
		}
		if err := secagg.ValidateMaskPub(att.MaskPub); err != nil {
			s.reject(conn, fmt.Sprintf("invalid mask public key: %v", err))
			return nil
		}
	}
	sess := &session{conn: conn, device: att.DeviceID, hasTEE: att.HasTEE, codec: att.Codec, cap: att.Cap, maskPub: att.MaskPub}
	if att.HasTEE && len(att.ClientPub) > 0 {
		if enclaved {
			if err := s.cfg.Enclave.Establish(offerID, att.DeviceID, att.ClientPub); err != nil {
				s.reject(conn, fmt.Sprintf("enclave channel establishment failed: %v", err))
				return nil
			}
			establishedOffer = true
			sess.enclaveChannel = true
		} else {
			channel, err := offer.Establish(att.ClientPub, true)
			if err != nil {
				s.reject(conn, fmt.Sprintf("channel establishment failed: %v", err))
				return nil
			}
			sess.channel = channel
		}
	} else if enclaved {
		// The masked layout must be uniform across the cohort: a client
		// unable to take protected tensors through the sealed path
		// cannot participate once the planner protects anything.
		s.reject(conn, "secure aggregation with an enclave requires a trusted channel")
		return nil
	}
	conn.SetCodec(att.Codec)
	if hasDeadlines {
		dc.SetReadTimeout(0) // reads are round-paced from here on
	}
	return sess
}

func (s *Server) reject(conn Conn, reason string) {
	// Best effort: a client that has already gone away stays rejected.
	_ = conn.Send(&Reject{Reason: reason})
	_ = conn.Close()
}
