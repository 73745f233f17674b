package fl

import (
	"path/filepath"
	"testing"

	"github.com/gradsec/gradsec/internal/journal"
)

// startAsyncUntilCrash runs RunAsync on a goroutine that converts a
// crashSentinel panic into an Abort — the async sibling of
// runUntilCrash, but hand-driven: the caller owns the client conns and
// decides exactly when each push happens.
func startAsyncUntilCrash(srv *Server, conns []Conn) chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				if c, ok := p.(crashSentinel); ok {
					srv.Abort()
					out <- c
					return
				}
				panic(p)
			}
		}()
		_, err := srv.RunAsync(conns)
		out <- err
	}()
	return out
}

// TestAsyncWatermarkRecovery: an asynchronous session crashes after a
// fold of version 2 was journaled but before the version watermarked;
// recovery replays the two committed watermarks bit-exactly, resumes at
// version 2, and the rejoined fleet finishes the remaining versions.
// GoalUpdates is 1, so every applied version equals exactly one pushed
// update and the whole model history is integer-exact.
func TestAsyncWatermarkRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "async.journal")
	cfg := ServerConfig{
		Rounds:     4, // model versions in async mode
		MinClients: 2,
		Async:      AsyncConfig{Enabled: true, GoalUpdates: 1},
	}

	// Phase 1 — the doomed process: versions 0 and 1 watermark (one
	// push each), then a's fold for version 2 triggers the crash before
	// the version commits.
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.Journal = j
	ccfg.Hooks = Hooks{UpdateFolded: func(version int, _ string) {
		if version == 2 {
			panic(crashSentinel{version})
		}
	}}
	srv := NewServer(newState(0), ccfg)
	sa, ca := Pipe()
	sb, cb := Pipe()
	crashed := startAsyncUntilCrash(srv, []Conn{sa, sb})
	a := dialAsyncPeer(t, "a", ca)
	b := dialAsyncPeer(t, "b", cb)
	ma := a.recvModel() // version 0
	mb := b.recvModel() // version 0
	a.push(ma, 1)       // watermarks version 0: state = 1
	ma = a.recvModel()  // re-armed with version 1
	b.push(mb, 2)       // watermarks version 1: state = 3
	_ = b.recvModel()   // re-armed with version 2
	a.push(ma, 4)       // folds into version 2 — crash fires here
	if c, ok := (<-crashed).(crashSentinel); !ok || c.round != 2 {
		t.Fatalf("session ended without crashing at version 2: %v", c)
	}
	_ = j.Close()

	// Phase 2 — recovery: committed watermarks rebuild the model, the
	// uncommitted version-2 fold is discarded, and the session resumes
	// at version 2.
	j2, err := journal.Append(jpath)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Journal = j2
	srv2, err := Recover(jpath, newState(0), rcfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := srv2.NextRound(); got != 2 {
		t.Fatalf("NextRound = %d, want 2 (the unwatermarked version)", got)
	}
	if got := len(srv2.Trace()); got != 2 {
		t.Fatalf("recovered trace has %d versions, want 2", got)
	}

	sa2, ca2 := Pipe()
	sb2, cb2 := Pipe()
	done := startAsyncUntilCrash(srv2, []Conn{sa2, sb2})
	a2 := dialAsyncPeer(t, "a", ca2)
	b2 := dialAsyncPeer(t, "b", cb2)
	ma2 := a2.recvModel()
	if int(ma2.Version) != 2 {
		t.Fatalf("resumed distribution at version %d, want 2", ma2.Version)
	}
	for _, view := range ma2.Views {
		for _, v := range view.Materialise().Data {
			if v != 3 {
				t.Fatalf("recovered model value %v, want 3 (the two committed watermarks)", v)
			}
		}
	}
	mb2 := b2.recvModel() // version 2, from the resumed distribution
	a2.push(ma2, 8)       // watermarks version 2: state = 11
	ma2 = a2.recvModel()  // version 3
	a2.push(ma2, 16)      // watermarks version 3: state = 27 — session complete
	final := a2.recvDone()
	// a's Done proves the last version applied and the drain began;
	// b's late push is now deterministically acknowledged, not folded.
	b2.push(mb2, 32)
	for _, ten := range final.Final {
		for _, v := range ten.Data {
			if v != 27 {
				t.Fatalf("final value %v, want 27", v)
			}
		}
	}
	_ = b2.recvDone()
	if err, ok := (<-done).(error); ok && err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	trace := srv2.Trace()
	if len(trace) != 4 {
		t.Fatalf("trace has %d versions, want 4", len(trace))
	}
	for i, st := range trace {
		if st.Round != i {
			t.Fatalf("trace[%d].Round = %d", i, st.Round)
		}
	}
	_ = j2.Close()
}

// TestAsyncFirstWindowHonoursStanding: the first window of a session —
// here a resumed one — arms and counts only the devices eligible at its
// version, like every later window. A device whose journal-recovered
// probation has not elapsed is not handed a model (so it cannot be
// folded) until the version that re-admits it, and the dead placeholder
// of a roster member that stayed away is not counted as sampled.
func TestAsyncFirstWindowHonoursStanding(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "async.journal")
	cfg := ServerConfig{
		Rounds: 4, MinClients: 1, QuarantineRounds: 2,
		Async: AsyncConfig{Enabled: true, GoalUpdates: 1},
	}

	// The doomed process: c fails in version 0 (probation until version
	// 3), a's push watermarks version 0 and the probation with it, and
	// the process dies opening version 1.
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	benched := make(chan struct{}, 1)
	ccfg := cfg
	ccfg.Journal = j
	ccfg.Hooks = Hooks{
		ClientProbationed: func(string, error) { benched <- struct{}{} },
		RoundStarted: func(version int, _ []string) {
			if version == 1 {
				panic(crashSentinel{version})
			}
		},
	}
	srv := NewServer(newState(0), ccfg)
	sa, ca := Pipe()
	sb, cb := Pipe()
	sc, cc := Pipe()
	crashed := startAsyncUntilCrash(srv, []Conn{sa, sb, sc})
	a, b, c := dialAsyncPeer(t, "a", ca), dialAsyncPeer(t, "b", cb), dialAsyncPeer(t, "c", cc)
	ma := a.recvModel()
	_, _ = b.recvModel(), c.recvModel()
	if err := cc.Send(&ErrorMsg{Text: "boom"}); err != nil {
		t.Fatal(err)
	}
	<-benched
	a.push(ma, 1)
	if crash, ok := (<-crashed).(crashSentinel); !ok || crash.round != 1 {
		t.Fatalf("session ended without crashing at version 1: %v", crash)
	}
	_ = j.Close()

	// Recovery: a and c rejoin, b stays away.
	j2, err := journal.Append(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var armed [][]string
	rcfg := cfg
	rcfg.Journal = j2
	rcfg.Hooks = Hooks{RoundStarted: func(_ int, names []string) { armed = append(armed, names) }}
	srv2, err := Recover(jpath, newState(0), rcfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	sa2, ca2 := Pipe()
	sc2, cc2 := Pipe()
	done := startAsyncUntilCrash(srv2, []Conn{sa2, sc2})
	a2, c2 := dialAsyncPeer(t, "a", ca2), dialAsyncPeer(t, "c", cc2)
	for version := uint64(1); version <= 3; version++ {
		m := a2.recvModel()
		if m.Version != version {
			t.Fatalf("a armed with version %d, want %d", m.Version, version)
		}
		a2.push(m, 1)
	}
	a2.recvDone()
	// c's first model is the version that ends its probation; its push
	// lands in the drain.
	mc := c2.recvModel()
	if mc.Version != 3 {
		t.Fatalf("c, on probation until version 3, was handed version %d", mc.Version)
	}
	c2.push(mc, 1)
	c2.recvDone()
	if err, ok := (<-done).(error); ok && err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	trace := srv2.Trace()
	for version, want := range map[int]int{1: 1, 2: 1, 3: 2} {
		if got := trace[version].Sampled; got != want {
			t.Errorf("version %d sampled %d devices, want %d", version, got, want)
		}
	}
	if len(armed) != 3 || len(armed[0]) != 1 || armed[0][0] != "a" {
		t.Errorf("windows announced %v, want [a] first", armed)
	}
}
