package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
)

func testRecords() []*Record {
	return []*Record{
		{Type: RecSession, Flags: FlagSecAgg, Seed: 42, Rounds: 5, Scale: 24, Floor: 2},
		{Type: RecRoster, Device: "d0", Codec: 1, Cap: 2, HasTEE: true, MaskPub: []byte{9, 8, 7}},
		{Type: RecRoster, Device: "d1"},
		{Type: RecFloor, Floor: 3},
		{Type: RecRoundOpen, Round: 0},
		{Type: RecFold, Round: 0, Device: "d0"},
		{Type: RecProbation, Device: "d1", Until: 3},
		{Type: RecRoundClose, Round: 0, OK: true,
			Stats:  Stats{Round: 0, Sampled: 2, Responded: 1, Probation: 1, WeightTotal: 1, UpdateNorm: 0.5},
			Update: []*tensor.Tensor{tensor.Full(0.25, 2, 2)}},
		{Type: RecRoundOpen, Round: 1},
		{Type: RecQuarantine, Device: "d1"},
		{Type: RecRoundClose, Round: 1, OK: false, Stats: Stats{Round: 1, Sampled: 1}},
	}
}

func writeJournal(t *testing.T, recs []*Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	want := testRecords()
	got, err := Replay(writeJournal(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Type != w.Type || g.Round != w.Round || g.Device != w.Device ||
			g.Codec != w.Codec || g.Cap != w.Cap || g.HasTEE != w.HasTEE ||
			g.Flags != w.Flags || g.Seed != w.Seed || g.Rounds != w.Rounds ||
			g.Scale != w.Scale || g.Floor != w.Floor || g.Until != w.Until ||
			g.OK != w.OK || g.Stats != w.Stats {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if !bytes.Equal(g.MaskPub, w.MaskPub) {
			t.Errorf("record %d MaskPub = %v, want %v", i, g.MaskPub, w.MaskPub)
		}
		if (g.Update == nil) != (w.Update == nil) {
			t.Fatalf("record %d update presence mismatch", i)
		}
		for k := range w.Update {
			if !g.Update[k].SameShape(w.Update[k]) {
				t.Fatalf("record %d update tensor %d shape mismatch", i, k)
			}
			for n, v := range w.Update[k].Data {
				if g.Update[k].Data[n] != v {
					t.Fatalf("record %d tensor %d datum %d = %v, want %v", i, k, n, g.Update[k].Data[n], v)
				}
			}
		}
	}
}

// A crash tears at most the trailing record; replay must return every
// record before the tear, for every possible truncation point.
func TestTornTail(t *testing.T) {
	path := writeJournal(t, testRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := magicLen; cut < len(data); cut++ {
		recs, err := Decode(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) >= len(full) {
			t.Fatalf("cut %d: torn journal replayed %d records, want < %d", cut, len(recs), len(full))
		}
		// Records before the tear decode identically.
		for i, rec := range recs {
			if rec.Type != full[i].Type || rec.Round != full[i].Round || rec.Device != full[i].Device {
				t.Fatalf("cut %d: record %d diverged", cut, i)
			}
		}
	}
}

func TestCorruptTailStopsCleanly(t *testing.T) {
	path := writeJournal(t, testRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the last record's payload: checksum mismatch.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0x40
	recs, err := Decode(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(testRecords())-1 {
		t.Fatalf("corrupt tail replayed %d records, want %d", len(recs), len(testRecords())-1)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Decode([]byte("not a journal at all")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode(nil); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestAppendReopen(t *testing.T) {
	recs := testRecords()
	path := writeJournal(t, recs[:4])
	j, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[4:] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records after reopen, want %d", len(got), len(recs))
	}
}

func TestAppendRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(path, []byte("bogus bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Append(path); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// Commit implements the write-ahead discipline: in-flight rounds are
// discarded, closed rounds commit their buffered transitions, failed
// closes burn a draw, watermarks do not.
func TestCommit(t *testing.T) {
	recs := testRecords()
	// Add an in-flight round: opened, quarantined a device, never closed.
	recs = append(recs,
		&Record{Type: RecRoundOpen, Round: 2},
		&Record{Type: RecQuarantine, Device: "d0"},
		&Record{Type: RecFold, Round: 2, Device: "d0"},
	)
	st := Commit(recs)
	if st.Session == nil || st.Session.Seed != 42 {
		t.Fatalf("session fingerprint not recovered: %+v", st.Session)
	}
	if len(st.Roster) != 2 || st.Roster[0].Device != "d0" || st.Roster[1].Device != "d1" {
		t.Fatalf("roster = %+v", st.Roster)
	}
	if st.Floor != 3 {
		t.Fatalf("floor = %d, want 3", st.Floor)
	}
	// d1: probation committed by round 0's close, quarantine by round 1's.
	if st.Probation["d1"] != 3 {
		t.Fatalf("probation[d1] = %d, want 3", st.Probation["d1"])
	}
	if !st.Quarantined["d1"] {
		t.Fatal("d1 quarantine (committed by round 1 close) lost")
	}
	// d0's quarantine belongs to the in-flight round 2 — discarded.
	if st.Quarantined["d0"] {
		t.Fatal("in-flight round 2 quarantine of d0 must be discarded")
	}
	if st.NextRound != 2 {
		t.Fatalf("next round = %d, want 2", st.NextRound)
	}
	if st.Draws != 2 {
		t.Fatalf("draws = %d, want 2 (both closes were synchronous)", st.Draws)
	}
	if len(st.Closes) != 2 || !st.Closes[0].OK || st.Closes[1].OK {
		t.Fatalf("closes = %+v", st.Closes)
	}
}

func TestCommitWatermarksBurnNoDraws(t *testing.T) {
	st := Commit([]*Record{
		{Type: RecSession, Flags: FlagAsync},
		{Type: RecRoundOpen, Round: 0},
		{Type: RecWatermark, Round: 0, OK: true, Update: []*tensor.Tensor{tensor.Full(1, 2)}},
		{Type: RecRoundOpen, Round: 1},
		{Type: RecWatermark, Round: 1, OK: true, Update: []*tensor.Tensor{tensor.Full(1, 2)}},
	})
	if st.Draws != 0 {
		t.Fatalf("draws = %d, want 0 for watermarks", st.Draws)
	}
	if st.NextRound != 2 || len(st.Closes) != 2 {
		t.Fatalf("next=%d closes=%d", st.NextRound, len(st.Closes))
	}
}

func TestCommitDiscardsAbandonedOpen(t *testing.T) {
	// Round 0 opens, never closes (pre-sample failure), round 1 opens
	// and closes: round 0's buffered transition must vanish and round
	// 1's must commit.
	st := Commit([]*Record{
		{Type: RecRoundOpen, Round: 0},
		{Type: RecProbation, Device: "a", Until: 9},
		{Type: RecRoundOpen, Round: 1},
		{Type: RecProbation, Device: "b", Until: 7},
		{Type: RecRoundClose, Round: 1, OK: true},
	})
	if _, ok := st.Probation["a"]; ok {
		t.Fatal("abandoned round 0 probation must be discarded")
	}
	if st.Probation["b"] != 7 {
		t.Fatalf("probation[b] = %d, want 7", st.Probation["b"])
	}
	if st.Draws != 1 {
		t.Fatalf("draws = %d, want 1", st.Draws)
	}
}

func TestStickyAppendError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close() // sabotage the fd; next append must fail and stick
	if err := j.Append(&Record{Type: RecFloor, Floor: 1}); err == nil {
		t.Fatal("append on closed fd succeeded")
	}
	if j.Err() == nil {
		t.Fatal("append error did not stick")
	}
}

// TestAppendRefusesWhatReplayCannotRead: a record Decode would read as a
// torn tail — here a close carrying an AlexNet-sized f64 update, 189.1
// MB against the 128 MiB record bound — is refused with
// ErrRecordTooLarge, no byte of it reaches the file, the error sticks,
// and Replay returns exactly the records Append accepted. Without the
// refusal all three appends succeed and Replay returns one record, with
// no error. (The update's pages are only sized, never touched.)
func TestAppendRefusesWhatReplayCannotRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const alexNetParams = 23_640_996
	recs := []*Record{
		{Type: RecRoundOpen, Round: 0},
		{Type: RecRoundClose, Round: 0, OK: true, Update: []*tensor.Tensor{tensor.New(alexNetParams)}},
		{Type: RecRoundOpen, Round: 1},
	}
	var accepted []RecType
	for i, rec := range recs {
		before, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		err = j.Append(rec)
		if err == nil {
			accepted = append(accepted, rec.Type)
			continue
		}
		if !errors.Is(err, ErrRecordTooLarge) || !errors.Is(j.Err(), ErrRecordTooLarge) {
			t.Fatalf("record %d: Append = %v, Err = %v; want ErrRecordTooLarge from both", i, err, j.Err())
		}
		if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
			t.Fatalf("record %d: a refused append wrote %d bytes", i, after.Size()-before.Size())
		}
	}
	if len(accepted) != 1 {
		t.Errorf("Append accepted %d records, want only the first: the refusal must stick", len(accepted))
	}
	if err := j.Sync(); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("Sync after a refused append = %v, want ErrRecordTooLarge", err)
	}
	got, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accepted) {
		t.Fatalf("Replay returned %d records, Append accepted %d: an accepted record was lost", len(got), len(accepted))
	}
	for i, rec := range got {
		if rec.Type != accepted[i] {
			t.Errorf("record %d replays as %s, want %s", i, rec.Type, accepted[i])
		}
	}
}
