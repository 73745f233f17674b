package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// seedJournal builds valid journal bytes in memory for the corpus.
func seedJournal(recs []*Record) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	for _, rec := range recs {
		payload := encodeRecord(rec)
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	return buf.Bytes()
}

// FuzzJournalReplay feeds hostile bytes to the journal decoder: it
// must never panic, never over-allocate past the frame budget, and
// Commit must produce a self-consistent state from whatever records
// survive decoding. Recovery code runs on exactly the bytes a crashed
// (or malicious) process left behind, so this is a trust boundary.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(seedJournal(nil))
	f.Add(seedJournal(recordExamples()))
	for _, rec := range recordExamples() {
		f.Add(seedJournal([]*Record{rec}))
	}
	// A deliberately corrupt trailer on a valid prefix.
	corrupt := seedJournal([]*Record{{Type: RecQuarantine, Device: "x"}})
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Decode(data)
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("records returned alongside error %v", err)
			}
			return
		}
		st := Commit(recs)
		// Whatever survived must be internally consistent.
		if st.NextRound < 0 || st.Draws < 0 || st.Draws > len(st.Closes) {
			t.Fatalf("inconsistent state: next=%d draws=%d closes=%d", st.NextRound, st.Draws, len(st.Closes))
		}
		for _, c := range st.Closes {
			if c.Type != RecRoundClose && c.Type != RecWatermark {
				t.Fatalf("non-close record in Closes: %v", c.Type)
			}
			for _, u := range c.Update {
				if u == nil {
					t.Fatal("nil tensor in committed update")
				}
			}
		}
		for _, r := range st.Roster {
			if r.Type != RecRoster {
				t.Fatalf("non-roster record in Roster: %v", r.Type)
			}
		}
		// Decoded records must re-encode and decode unchanged.
		re, err := Decode(seedJournal(recs))
		if err != nil || !equalBits(reflect.ValueOf(re), reflect.ValueOf(recs)) {
			t.Fatalf("re-encode round trip: %d of %d records, err %v", len(re), len(recs), err)
		}
	})
}

// TestEveryRecordHasAnExample guards the example table that seeds the
// golden hashes and the fuzz corpus: a new record type must join it.
func TestEveryRecordHasAnExample(t *testing.T) {
	have := map[RecType]bool{}
	for _, rec := range recordExamples() {
		have[rec.Type] = true
	}
	for typ := RecType(1); ; typ++ {
		if _, err := decodeRecord(encodeRecord(&Record{Type: typ})); err != nil {
			break // the first type the format does not know
		}
		if !have[typ] {
			t.Errorf("record type %s has no example in recordExamples", typ)
		}
	}
}

// equalBits is reflect.DeepEqual with floats compared by bit pattern,
// so a NaN that survives a round trip counts as the same value.
func equalBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() || a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}
