// Package journal is the crash-durability layer of the federation
// engine: an append-only, length-prefixed, checksummed record log of
// everything a server must remember to resume a session after a crash
// — roster admissions, quarantine/probation transitions, the secure-
// aggregation release floor, round open/fold/close events and async
// version watermarks.
//
// The format is deliberately dumb. Each record is
//
//	uint32 BE payload length | uint32 BE CRC-32 (IEEE) of payload | payload
//
// and the payload is a record-type byte followed by wire-encoded
// fields. The file opens with an 8-byte magic. Appends are a single
// write(2) each, so a crash tears at most the trailing record; Replay
// stops cleanly at the first torn or corrupt record and returns
// everything before it. Nothing in the file is trusted: Decode is
// fuzzed against hostile bytes and must never panic or over-allocate.
//
// Round records follow a write-ahead discipline. RecRoundOpen marks a
// round in flight; the records between it and the matching
// RecRoundClose (quarantines, probations, folds) are only *committed*
// by the close. A replayer therefore buffers per-round records and
// discards an open round that never closed — that round crashed mid-
// flight and will simply be re-run by the recovered process. Failed
// rounds DO close (with OK=false): they consumed a sampling draw and
// left a trace entry, and replay must reproduce both.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// RecType discriminates journal records.
type RecType uint8

const (
	// RecSession opens a journal: a fingerprint of the session
	// configuration (mode flags, sampling seed, planned rounds,
	// release floor). Recover refuses a journal whose fingerprint
	// disagrees with the config it was handed — replaying a masked
	// session into a plaintext server would corrupt state silently.
	RecSession RecType = 1
	// RecRoster admits one device. Roster records are written in
	// selection order and the order is load-bearing: cohort sampling
	// permutes roster indices, so a recovered server must rebuild the
	// roster in exactly this order for its draws to line up.
	RecRoster RecType = 2
	// RecFloor raises the secure-aggregation release floor
	// (MinRelease). Floors are monotonic, matching the enclave.
	RecFloor RecType = 3
	// RecQuarantine permanently excludes a device.
	RecQuarantine RecType = 4
	// RecProbation benches a device until the given round.
	RecProbation RecType = 5
	// RecRoundOpen marks a synchronous round in flight.
	RecRoundOpen RecType = 6
	// RecFold records one update folded into the open round. Folds
	// carry no tensor data — they exist so an operator (or test) can
	// see how far a crashed round got.
	RecFold RecType = 7
	// RecRoundClose commits the open round: its stats, whether it
	// succeeded, and — for rounds that applied an aggregate — the
	// applied mean update, so replay reproduces the model
	// bit-identically without re-running training.
	RecRoundClose RecType = 8
	// RecWatermark commits an asynchronous model version (the
	// goal-updates buffer was applied). Like RecRoundClose it carries
	// stats and the applied update, but asynchronous sessions never
	// sample, so watermarks burn no RNG draws on replay.
	RecWatermark RecType = 9

	recMax = RecWatermark
)

func (t RecType) String() string {
	switch t {
	case RecSession:
		return "session"
	case RecRoster:
		return "roster"
	case RecFloor:
		return "floor"
	case RecQuarantine:
		return "quarantine"
	case RecProbation:
		return "probation"
	case RecRoundOpen:
		return "round-open"
	case RecFold:
		return "fold"
	case RecRoundClose:
		return "round-close"
	case RecWatermark:
		return "watermark"
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Session flag bits (RecSession.Flags).
const (
	FlagSecAgg uint64 = 1 << iota
	FlagPartials
	FlagAsync
	FlagRequireTEE
	// FlagEdgePeers marks a session whose peers are edge aggregators
	// (a hierarchy root's journal).
	FlagEdgePeers
)

// Stats mirrors fl.RoundStats field-for-field. The journal cannot
// import internal/fl (fl writes through the journal), so the engine
// converts at the boundary.
type Stats struct {
	Round         int
	Sampled       int
	Responded     int
	Dropped       int
	Quarantined   int
	Probation     int
	LateDiscarded int
	Duplicates    int
	Reconciled    int
	WeightTotal   float64
	UpdateNorm    float64
	Shards        int
}

// Record is one journal entry. Which fields are meaningful depends on
// Type; unused fields are zero.
type Record struct {
	Type RecType

	// Round: the round (or async version) index for RecRoundOpen,
	// RecFold, RecRoundClose and RecWatermark.
	Round int

	// Device: the subject of RecRoster, RecQuarantine, RecProbation
	// and RecFold records.
	Device string

	// Roster fields (RecRoster).
	Codec   uint8
	Cap     uint8
	HasTEE  bool
	MaskPub []byte

	// Session fingerprint (RecSession).
	Flags  uint64
	Seed   int64
	Rounds int
	Scale  int

	// Floor (RecSession, RecFloor).
	Floor int

	// Until: first eligible round again (RecProbation).
	Until int

	// Close fields (RecRoundClose, RecWatermark).
	OK     bool
	Stats  Stats
	Update []*tensor.Tensor
}

const magicLen = 8

var magic = [magicLen]byte{'G', 'S', 'J', 'R', 'N', 'L', '1', '\n'}

// maxRecord bounds a single record payload. Reuses the wire frame
// budget: a close record carries at most one model update.
const maxRecord = wire.MaxFrame

// ErrBadMagic reports a file that is not a GradSec journal at all (as
// opposed to a journal with a torn tail, which replays cleanly).
var ErrBadMagic = errors.New("journal: bad magic")

// Journal is an append-only record log backed by one file. Methods are
// not safe for concurrent use; the engine appends from its round
// goroutine only. (Pending is the one exception: it is atomic so an
// admin /healthz goroutine can read the journal lag live.)
type Journal struct {
	f   *os.File
	err error

	// pending counts records appended since the last successful Sync —
	// the durability exposure if the process dies right now.
	pending atomic.Int64

	// appendNS/syncNS, when instrumented, receive per-call I/O latency
	// in nanoseconds. These time real file I/O, so they use the real
	// clock regardless of any simulated session clock.
	appendNS *obs.Histogram
	syncNS   *obs.Histogram
}

// Instrument attaches latency histograms to Append and Sync. Pass nil
// to detach. Call before the journal is handed to the engine.
func (j *Journal) Instrument(appendNS, syncNS *obs.Histogram) {
	j.appendNS = appendNS
	j.syncNS = syncNS
}

// Pending returns the number of records appended since the last
// successful Sync. Safe to call from any goroutine.
func (j *Journal) Pending() int64 {
	if j == nil {
		return 0
	}
	return j.pending.Load()
}

// Create creates (or truncates) a journal file and writes the magic.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: writing magic: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append reopens an existing journal for appending (a recovered
// process continues its predecessor's log). The magic is validated; a
// torn trailing record is left in place — Replay tolerates it and a
// subsequent recovery will simply discard it again.
func Append(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: append: %w", err)
	}
	var m [magicLen]byte
	rf, err := os.Open(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: append: %w", err)
	}
	_, rerr := io.ReadFull(rf, m[:])
	rf.Close()
	if rerr != nil || m != magic {
		f.Close()
		return nil, ErrBadMagic
	}
	return &Journal{f: f}, nil
}

// Err returns the first append error, if any. The engine treats the
// journal as best-effort durability: appends never fail a round, but a
// harness (or operator) should check Err before trusting the log.
func (j *Journal) Err() error { return j.err }

// Append encodes and writes one record. The header and payload go out
// in a single Write so a crash cannot interleave records. The first
// failed write sticks: later appends become no-ops reporting it.
func (j *Journal) Append(rec *Record) error {
	if j.err != nil {
		return j.err
	}
	payload := encodeRecord(rec)
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	var start time.Time
	if j.appendNS != nil {
		start = time.Now()
	}
	if _, err := j.f.Write(buf); err != nil {
		j.err = fmt.Errorf("journal: append: %w", err)
		return j.err
	}
	if j.appendNS != nil {
		j.appendNS.Observe(time.Since(start).Nanoseconds())
	}
	j.pending.Add(1)
	return nil
}

// Sync flushes the log to stable storage.
func (j *Journal) Sync() error {
	if j.err != nil {
		return j.err
	}
	var start time.Time
	if j.syncNS != nil {
		start = time.Now()
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("journal: sync: %w", err)
		return j.err
	}
	if j.syncNS != nil {
		j.syncNS.Observe(time.Since(start).Nanoseconds())
	}
	j.pending.Store(0)
	return nil
}

// Close syncs and closes the file. Safe to call twice.
func (j *Journal) Close() error {
	if j.f == nil {
		return j.err
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if j.err == nil {
		if serr != nil {
			j.err = serr
		} else if cerr != nil {
			j.err = cerr
		}
	}
	return j.err
}

// encodeRecord serialises a record payload (type byte + fields).
// Tensors always travel uncompressed f64 — a journal is a durability
// artefact, not a bandwidth-constrained link, and replay must be
// bit-exact.
func encodeRecord(rec *Record) []byte {
	w := wire.NewWriter()
	w.Codec = wire.CodecF64
	w.Uvarint(uint64(rec.Type))
	switch rec.Type {
	case RecSession:
		w.Uvarint(rec.Flags)
		w.Uvarint(uint64(rec.Seed))
		w.Uvarint(uint64(rec.Rounds))
		w.Uvarint(uint64(rec.Scale))
		w.Uvarint(uint64(rec.Floor))
	case RecRoster:
		w.String(rec.Device)
		w.Uvarint(uint64(rec.Codec))
		w.Uvarint(uint64(rec.Cap))
		w.Bool(rec.HasTEE)
		w.Blob(rec.MaskPub)
	case RecFloor:
		w.Uvarint(uint64(rec.Floor))
	case RecQuarantine:
		w.String(rec.Device)
	case RecProbation:
		w.String(rec.Device)
		w.Uvarint(uint64(rec.Until))
	case RecRoundOpen:
		w.Uvarint(uint64(rec.Round))
	case RecFold:
		w.Uvarint(uint64(rec.Round))
		w.String(rec.Device)
	case RecRoundClose, RecWatermark:
		w.Uvarint(uint64(rec.Round))
		w.Bool(rec.OK)
		encodeStats(w, &rec.Stats)
		w.Bool(rec.Update != nil)
		if rec.Update != nil {
			w.TensorList(rec.Update)
		}
	}
	return w.Detach()
}

func encodeStats(w *wire.Writer, st *Stats) {
	w.Uvarint(uint64(st.Round))
	w.Uvarint(uint64(st.Sampled))
	w.Uvarint(uint64(st.Responded))
	w.Uvarint(uint64(st.Dropped))
	w.Uvarint(uint64(st.Quarantined))
	w.Uvarint(uint64(st.Probation))
	w.Uvarint(uint64(st.LateDiscarded))
	w.Uvarint(uint64(st.Duplicates))
	w.Uvarint(uint64(st.Reconciled))
	w.Float64(st.WeightTotal)
	w.Float64(st.UpdateNorm)
	w.Uvarint(uint64(st.Shards))
}

// decodeRecord parses one payload. Returns an error on any malformed
// field — the caller treats that as a torn tail.
func decodeRecord(payload []byte) (*Record, error) {
	r := wire.NewReader(payload)
	r.Codec = wire.CodecF64
	t := r.Uvarint()
	if r.Err() != nil || t == 0 || t > uint64(recMax) {
		return nil, fmt.Errorf("journal: bad record type %d", t)
	}
	rec := &Record{Type: RecType(t)}
	switch rec.Type {
	case RecSession:
		rec.Flags = r.Uvarint()
		rec.Seed = int64(r.Uvarint())
		rec.Rounds = asInt(r.Uvarint())
		rec.Scale = asInt(r.Uvarint())
		rec.Floor = asInt(r.Uvarint())
	case RecRoster:
		rec.Device = r.String()
		rec.Codec = uint8(r.Uvarint())
		rec.Cap = uint8(r.Uvarint())
		rec.HasTEE = r.Bool()
		rec.MaskPub = r.Blob()
	case RecFloor:
		rec.Floor = asInt(r.Uvarint())
	case RecQuarantine:
		rec.Device = r.String()
	case RecProbation:
		rec.Device = r.String()
		rec.Until = asInt(r.Uvarint())
	case RecRoundOpen:
		rec.Round = asInt(r.Uvarint())
	case RecFold:
		rec.Round = asInt(r.Uvarint())
		rec.Device = r.String()
	case RecRoundClose, RecWatermark:
		rec.Round = asInt(r.Uvarint())
		rec.OK = r.Bool()
		decodeStats(r, &rec.Stats)
		if r.Bool() {
			rec.Update = r.TensorList()
			if r.Err() == nil && rec.Update == nil {
				return nil, errors.New("journal: close record with empty update list")
			}
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("journal: decoding %s record: %w", rec.Type, r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("journal: %d trailing bytes in %s record", r.Remaining(), rec.Type)
	}
	return rec, nil
}

func decodeStats(r *wire.Reader, st *Stats) {
	st.Round = asInt(r.Uvarint())
	st.Sampled = asInt(r.Uvarint())
	st.Responded = asInt(r.Uvarint())
	st.Dropped = asInt(r.Uvarint())
	st.Quarantined = asInt(r.Uvarint())
	st.Probation = asInt(r.Uvarint())
	st.LateDiscarded = asInt(r.Uvarint())
	st.Duplicates = asInt(r.Uvarint())
	st.Reconciled = asInt(r.Uvarint())
	st.WeightTotal = r.Float64()
	st.UpdateNorm = r.Float64()
	st.Shards = asInt(r.Uvarint())
}

// asInt narrows a journal varint to int, saturating rather than
// wrapping on hostile 64-bit values (fuzzed inputs).
func asInt(v uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if v > uint64(maxInt) {
		return maxInt
	}
	return int(v)
}

// Replay reads a journal file and returns its committed records in
// order. See Decode for the commit/torn-tail semantics.
func Replay(path string) ([]*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: replay: %w", err)
	}
	return Decode(data)
}

// Decode parses journal bytes. The trailing record may be torn by a
// crash (short header, truncated payload, checksum mismatch, or a
// partially-encoded payload); decoding stops cleanly there and
// returns the records before it. A missing or wrong magic is a real
// error — the file is not a journal.
//
// Decode returns the *raw* record sequence, including records of
// rounds that never committed; use Commit to fold them into durable
// state.
func Decode(data []byte) ([]*Record, error) {
	if len(data) < magicLen || [magicLen]byte(data[:magicLen]) != magic {
		return nil, ErrBadMagic
	}
	data = data[magicLen:]
	var recs []*Record
	for len(data) >= 8 {
		n := binary.BigEndian.Uint32(data[0:4])
		sum := binary.BigEndian.Uint32(data[4:8])
		if n > maxRecord || uint64(n) > uint64(len(data)-8) {
			break // torn tail
		}
		payload := data[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn or corrupt tail
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break // torn tail (or garbage that happened to checksum)
		}
		recs = append(recs, rec)
		data = data[8+n:]
	}
	return recs, nil
}

// State is the durable session state reconstructed from a journal:
// everything committed as of the last round close. In-flight (opened
// but unclosed) rounds are discarded — the recovered process re-runs
// them.
type State struct {
	// Session is the fingerprint record, nil if the journal predates
	// one (empty journals recover to a blank state).
	Session *Record
	// Roster holds admission records in selection order.
	Roster []*Record
	// Floor is the highest committed release floor.
	Floor int
	// Quarantined holds permanently excluded devices.
	Quarantined map[string]bool
	// Probation maps a device to the first round it is eligible
	// again. Entries only grow (a later probation extends).
	Probation map[string]int
	// Closes holds the committed round-close and watermark records in
	// commit order; replaying their Update tensors in order
	// reconstructs the model bit-identically.
	Closes []*Record
	// NextRound is the first round (or async version) the recovered
	// process should run: one past the last committed close, or the
	// discarded in-flight round.
	NextRound int
	// Draws counts the cohort-sampling permutations the crashed
	// process consumed: one per committed synchronous close
	// (watermarks burn none). A recovered server fast-forwards its RNG
	// by this many roster-sized draws.
	Draws int
}

// Commit folds a decoded record sequence into durable state,
// implementing the write-ahead discipline: records between a round
// open and its close commit atomically at the close; an open with no
// close (the crashed round — or a round that aborted before opening
// its successor) is discarded entirely.
func Commit(recs []*Record) *State {
	st := &State{
		Quarantined: make(map[string]bool),
		Probation:   make(map[string]int),
	}
	var pending []*Record // records since the in-flight RecRoundOpen
	var pendingRound int
	inFlight := false
	apply := func(rec *Record) {
		switch rec.Type {
		case RecSession:
			if st.Session == nil {
				st.Session = rec
			}
		case RecRoster:
			st.Roster = append(st.Roster, rec)
		case RecFloor:
			if rec.Floor > st.Floor {
				st.Floor = rec.Floor
			}
		case RecQuarantine:
			st.Quarantined[rec.Device] = true
		case RecProbation:
			if rec.Until > st.Probation[rec.Device] {
				st.Probation[rec.Device] = rec.Until
			}
		}
	}
	for _, rec := range recs {
		switch rec.Type {
		case RecRoundOpen:
			// A new open while one is pending discards the pending
			// round: it died without closing (pre-sample failures
			// close nothing and burn no draw).
			pending = pending[:0]
			pendingRound = rec.Round
			inFlight = true
		case RecRoundClose, RecWatermark:
			if inFlight && rec.Round == pendingRound {
				for _, p := range pending {
					apply(p)
				}
				pending = pending[:0]
				inFlight = false
			} else if rec.Type == RecWatermark && !inFlight {
				// Async sessions may watermark without a paired open
				// (version boundaries are fuzzier than rounds);
				// commit directly.
			} else {
				// A close for a round we never saw open — tolerate
				// (the open may predate a truncated head) but do not
				// replay buffered records for it.
				pending = pending[:0]
				inFlight = false
			}
			st.Closes = append(st.Closes, rec)
			if rec.Type == RecRoundClose {
				st.Draws++
			}
			if rec.Round+1 > st.NextRound {
				st.NextRound = rec.Round + 1
			}
		default:
			if inFlight {
				pending = append(pending, rec)
			} else {
				apply(rec)
			}
		}
	}
	return st
}
