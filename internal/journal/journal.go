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
// fields, walked once for both directions by Record.walk
// (docs/WIRE.md). The file opens with an 8-byte magic. Appends are a single
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
	"slices"
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

// Stats is one round's accounting: the engine's trace entry and hook
// argument (fl.RoundStats is this type) and the stats a close record
// commits. Every field but the two wire byte counters is journaled.
type Stats struct {
	// Round is the FL cycle index.
	Round int
	// Sampled is the cohort size drawn for the round.
	Sampled int
	// Responded counts updates folded before the deadline.
	Responded int
	// Dropped counts sampled clients that straggled past the deadline.
	Dropped int
	// Quarantined counts clients permanently excluded during the round.
	Quarantined int
	// Probation counts clients placed on temporary probation during the
	// round (QuarantineRounds; unlike Quarantined they come back).
	Probation int
	// LateDiscarded counts stale updates thrown away: answers to
	// earlier rounds in synchronous sessions, or pushes staler than
	// Async.MaxStaleness in asynchronous ones.
	LateDiscarded int
	// Duplicates counts duplicate or rate-limited pushes discarded in
	// asynchronous sessions; always 0 in round-synchronous ones.
	Duplicates int
	// Reconciled counts dropped cohort members whose unpaired masks
	// were reconstructed from survivor shares (secure aggregation).
	Reconciled int
	// WeightTotal is the summed FedAvg weight of the folded updates; it
	// equals Responded when every client carries unit weight (no
	// example counts on the wire).
	WeightTotal float64
	// UpdateNorm is the L2 norm of the applied aggregate update.
	UpdateNorm float64
	// Shards counts the edge partials folded into the round's aggregate
	// in a hierarchical session (internal/hier); 0 in flat sessions. In
	// a root's trace Sampled/Responded/Dropped/… are fleet-wide totals
	// summed over the shard accounting each PartialUp carries.
	Shards int
	// BytesUp and BytesDown are the round's wire traffic (client→server
	// and server→client, frame headers included), measured between round
	// commits when the server has metrics; 0 with metrics disabled and in
	// the trace of an edge-peer tier, which meters no wire bytes. They
	// are observability, not protocol state: walk does not journal them
	// (a close record's stats end at Shards, and its decode is strict
	// about trailing bytes), so a recovered trace reports 0 for replayed
	// rounds.
	BytesUp   uint64
	BytesDown uint64
}

// walk is the journaled part of the stats.
func (st *Stats) walk(f *wire.Fields) {
	f.Int(&st.Round)
	f.Int(&st.Sampled)
	f.Int(&st.Responded)
	f.Int(&st.Dropped)
	f.Int(&st.Quarantined)
	f.Int(&st.Probation)
	f.Int(&st.LateDiscarded)
	f.Int(&st.Duplicates)
	f.Int(&st.Reconciled)
	f.Float64(&st.WeightTotal)
	f.Float64(&st.UpdateNorm)
	f.Int(&st.Shards)
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

// ErrRecordTooLarge is Append's refusal of a record above maxRecord —
// a close carrying a model update larger than one frame, such as the
// paper's AlexNet at f64. Written, it would replay as a torn tail, and
// every record after it would be lost without an error.
var ErrRecordTooLarge = errors.New("journal: record too large to replay")

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

// Err returns the first append or sync error, if any — sticky, so
// nothing after a lost record is written. The engine never cuts a round
// short on it, but fails the round that saw it once the round is over
// (fl's StepRound and Run return it).
func (j *Journal) Err() error { return j.err }

// Append encodes and writes one record. The header and payload go out
// in a single Write so a crash cannot interleave records. A record above
// maxRecord, which Decode would read as a torn tail, is refused with
// ErrRecordTooLarge before a byte of it is encoded or written. The first
// failure sticks: later appends become no-ops reporting it.
func (j *Journal) Append(rec *Record) error {
	if j.err != nil {
		return j.err
	}
	if n := wire.Size(wire.CodecF64, rec.walk); n > maxRecord {
		j.err = fmt.Errorf("%w: a %d-byte %s record, limit %d", ErrRecordTooLarge, n, rec.Type, maxRecord)
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
func encodeRecord(rec *Record) []byte { return wire.Encode(wire.CodecF64, rec.walk) }

// decodeRecord parses one payload. Returns an error on any malformed
// field or trailing byte — the caller treats that as a torn tail.
func decodeRecord(payload []byte) (*Record, error) {
	rec := &Record{}
	if err := wire.Decode(payload, wire.CodecF64, rec.walk); err != nil {
		return nil, fmt.Errorf("journal: decoding %s record: %w", rec.Type, err)
	}
	return rec, nil
}

// walk is the record format: the type, then the fields that type
// carries. Session seeds are two's-complement int64s; every other
// integer is a non-negative int.
func (rec *Record) walk(f *wire.Fields) {
	f.Uint8((*uint8)(&rec.Type))
	switch rec.Type {
	case RecSession:
		f.Uvarint(&rec.Flags)
		f.Int64(&rec.Seed)
		f.Int(&rec.Rounds)
		f.Int(&rec.Scale)
		f.Int(&rec.Floor)
	case RecRoster:
		f.String(&rec.Device)
		f.Uint8(&rec.Codec)
		f.Uint8(&rec.Cap)
		f.Bool(&rec.HasTEE)
		f.Blob(&rec.MaskPub)
	case RecFloor:
		f.Int(&rec.Floor)
	case RecQuarantine:
		f.String(&rec.Device)
	case RecProbation:
		f.String(&rec.Device)
		f.Int(&rec.Until)
	case RecRoundOpen:
		f.Int(&rec.Round)
	case RecFold:
		f.Int(&rec.Round)
		f.String(&rec.Device)
	case RecRoundClose, RecWatermark:
		f.Int(&rec.Round)
		f.Bool(&rec.OK)
		rec.Stats.walk(f)
		present := rec.Update != nil
		f.Bool(&present)
		if present {
			// Recovery applies the update to every model tensor in turn.
			f.Tensors(&rec.Update)
			if len(rec.Update) == 0 || slices.Contains(rec.Update, nil) {
				f.Fail("close record update with no or nil tensors")
			}
		}
	default:
		f.Fail("record type")
	}
	f.End()
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
