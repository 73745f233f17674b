package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

// recordExamples is one record of every RecType with every field its
// type carries set. It is the golden table of the journal format and
// the seed corpus of FuzzJournalReplay; a new record type or field
// belongs here (docs/WIRE.md).
func recordExamples() []*Record {
	stats := Stats{
		Round: 300, Sampled: 9, Responded: 6, Dropped: 1, Quarantined: 1, Probation: 1,
		LateDiscarded: 2, Duplicates: 3, Reconciled: 1, WeightTotal: 6.5, UpdateNorm: 0.125, Shards: 4,
	}
	update := []*tensor.Tensor{tensor.FromSlice([]float64{0.5, -1e-300, 3}, 3, 1), tensor.Full(-0.25, 2)}
	return []*Record{
		{Type: RecSession, Flags: FlagSecAgg | FlagPartials | FlagEdgePeers, Seed: -3, Rounds: 700, Scale: 24, Floor: 5},
		{Type: RecRoster, Device: "edge-0", Codec: 2, Cap: 2, HasTEE: true, MaskPub: []byte{1, 2, 3, 4}},
		{Type: RecFloor, Floor: 130},
		{Type: RecQuarantine, Device: "pi-q"},
		{Type: RecProbation, Device: "pi-p", Until: 301},
		{Type: RecRoundOpen, Round: 300},
		{Type: RecFold, Round: 300, Device: "pi-f"},
		{Type: RecRoundClose, Round: 300, OK: true, Stats: stats, Update: update},
		{Type: RecWatermark, Round: 128, OK: true, Stats: stats, Update: update},
	}
}

// goldenRecordHashes are the SHA-256 of every example's payload,
// recorded before the records moved onto the field walker: the journal
// format may not move by a byte.
var goldenRecordHashes = map[string]string{
	"floor":       "72b1e8e6201bdda85f5dcc1838aabc2594dc97d652618201492d07bd04dd8697",
	"fold":        "3cdccabc7f3d171483a26119417f7de31e8b90a1bfc25353c414fb7d5f014216",
	"probation":   "a19aa3fffffe31c68b50044ff67b8c8181d41633ed3de30dedcc623413054361",
	"quarantine":  "5a8a72539aa4a42561d294c7f0abaeeedc710286e80bb37dc88b2d425911e6a5",
	"roster":      "51f7c26694430bc2448d1151be7888dc4c730f9d952479dd0263197a043d0a20",
	"round-close": "ebff4e5f5d380571f16eedf39f3e16c48ccb010bd22640e25bf13264793157fe",
	"round-open":  "45e1f1844113420779b548b3fa04abc3a7a572d2243825f59849e2cf52c37aea",
	"session":     "385c70d6f0ba8b0dc35b8f4e9192fb6f2a07d5f8337483f08919d7a8898c791e",
	"watermark":   "2c66a81019eb690bee91fdb0d9af9abb80c8316d4ee0c8a79ea05eaf0346823c",
}

// TestGoldenRecordFormat pins the journal's bytes for every record
// type, and each payload must decode back to its example exactly.
func TestGoldenRecordFormat(t *testing.T) {
	got := map[string]string{}
	for _, rec := range recordExamples() {
		payload := encodeRecord(rec)
		h := sha256.Sum256(payload)
		got[rec.Type.String()] = hex.EncodeToString(h[:])
		dec, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("%s: %v", rec.Type, err)
		}
		if !reflect.DeepEqual(dec, rec) {
			t.Errorf("%s: decode differs from the example:\n got  %+v\n want %+v", rec.Type, dec, rec)
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := len(got) != len(goldenRecordHashes)
	for _, k := range keys {
		if got[k] != goldenRecordHashes[k] {
			bad = true
			t.Errorf("%s: hash %s, recorded %s", k, got[k], goldenRecordHashes[k])
		}
	}
	if bad {
		var table string
		for _, k := range keys {
			table += fmt.Sprintf("\t%q: %q,\n", k, got[k])
		}
		t.Fatalf("computed table:\n%s", table)
	}
}

// TestCloseRecordRejectsNilTensor: recovery applies a close record's
// update tensor by tensor, so a record whose update carries the nil
// marker is corrupt (fl.Recover dereferenced it).
func TestCloseRecordRejectsNilTensor(t *testing.T) {
	rec := &Record{Type: RecRoundClose, OK: true, Update: []*tensor.Tensor{tensor.Full(1, 2), nil}}
	if got, err := decodeRecord(encodeRecord(rec)); err == nil {
		t.Fatalf("decoded %+v", got)
	}
}
