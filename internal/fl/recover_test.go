package fl

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/tensor"
)

// cloneState deep-copies a model so a recovery run can replay onto the
// same initial values the crashed run started from.
func cloneState(state []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(state))
	for i, ts := range state {
		out[i] = tensor.FromSlice(append([]float64(nil), ts.Data...), ts.Shape...)
	}
	return out
}

// crashSentinel is the panic value the crash hook throws to simulate a
// process dying mid-session.
type crashSentinel struct{ round int }

// runUntilCrash drives a session whose server "crashes" (panics out of
// Run, then aborts without closing) when the configured hook fires.
// Client errors are expected — their process outlived the server's.
func runUntilCrash(t *testing.T, srv *Server, trainers []*testTrainer) {
	t.Helper()
	serverConns := make([]Conn, len(trainers))
	var wg sync.WaitGroup
	for i, tr := range trainers {
		sc, cc := Pipe()
		serverConns[i] = sc
		cl := NewClient(cc, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Run() // dies with the server; errors are the point
		}()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSentinel); !ok {
					panic(r)
				}
				srv.Abort()
				return
			}
			t.Fatal("session finished without crashing")
		}()
		_, _ = srv.Run(serverConns)
	}()
	wg.Wait()
}

func recoverTrainers(deltas ...float64) []*testTrainer {
	out := make([]*testTrainer, len(deltas))
	for i, d := range deltas {
		out[i] = newTestTrainer(string(rune('a'+i)), false, d)
	}
	return out
}

// TestRecoverBitIdentical is the core crash-durability property: a
// session that crashes mid-round and recovers from its journal produces
// the same final model, bit for bit, as one that never crashed — same
// cohort sequence, same trace.
func TestRecoverBitIdentical(t *testing.T) {
	deltas := []float64{1, 2, 4, 8, 16} // dyadic: means are exact
	baseCfg := ServerConfig{
		Rounds:         4,
		MinClients:     2,
		SampleFraction: 0.6, // exercises the RNG fast-forward
		SampleSeed:     7,
	}
	dir := t.TempDir()

	// Uncrashed baseline.
	j1, err := journal.Create(filepath.Join(dir, "base.j"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg
	cfg.Journal = j1
	baseState := newState(1, 10)
	base := NewServer(baseState, cfg)
	if _, err := runSession(t, base, recoverTrainers(deltas...)); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Crashing run: same config, dies inside round 2 after the
	// write-ahead open — the round is uncommitted and must re-run.
	jpath := filepath.Join(dir, "crash.j")
	j2, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg = baseCfg
	cfg.Journal = j2
	cfg.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 2 {
			panic(crashSentinel{round})
		}
	}}
	crashState := newState(1, 10)
	crashed := NewServer(crashState, cfg)
	runUntilCrash(t, crashed, recoverTrainers(deltas...))
	j2.Close()

	// Recover from the journal onto the initial model and resume with a
	// fresh set of client processes.
	j3, err := journal.Append(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg = baseCfg
	cfg.Journal = j3
	resumed, err := Recover(jpath, newState(1, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.NextRound(); got != 2 {
		t.Fatalf("NextRound = %d, want 2 (rounds 0 and 1 committed)", got)
	}
	if len(resumed.Trace()) != 2 {
		t.Fatalf("recovered trace has %d rounds, want 2", len(resumed.Trace()))
	}
	if _, err := runSession(t, resumed, recoverTrainers(deltas...)); err != nil {
		t.Fatal(err)
	}
	j3.Close()

	for i := range baseState {
		for j := range baseState[i].Data {
			if resumed.state[i].Data[j] != baseState[i].Data[j] {
				t.Fatalf("state[%d][%d]: recovered %v, baseline %v",
					i, j, resumed.state[i].Data[j], baseState[i].Data[j])
			}
		}
	}
	bt, rt := base.Trace(), resumed.Trace()
	if len(bt) != len(rt) {
		t.Fatalf("trace length: recovered %d, baseline %d", len(rt), len(bt))
	}
	for i := range bt {
		if bt[i].Round != rt[i].Round || bt[i].Sampled != rt[i].Sampled ||
			bt[i].Responded != rt[i].Responded || bt[i].UpdateNorm != rt[i].UpdateNorm {
			t.Fatalf("trace[%d]: recovered %+v, baseline %+v", i, rt[i], bt[i])
		}
	}
}

// TestRecoverPartialRejoin: roster members that do not come back keep
// their slots as dead placeholders, so the sampling permutation indexes
// the same space; the session continues as long as MinClients rejoin.
func TestRecoverPartialRejoin(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j")
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Rounds: 3, MinClients: 2, SampleSeed: 3, Journal: j}
	cfg.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 1 {
			panic(crashSentinel{round})
		}
	}}
	srv := NewServer(newState(5), cfg)
	runUntilCrash(t, srv, recoverTrainers(1, 2, 4, 8))
	j.Close()

	j2, err := journal.Append(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := ServerConfig{Rounds: 3, MinClients: 2, SampleSeed: 3, Journal: j2}
	resumed, err := Recover(jpath, newState(5), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Only devices "a" and "b" rejoin; "c" and "d" stay dead.
	if _, err := runSession(t, resumed, recoverTrainers(1, 2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	// Dyadic throughout: round 0 folds {1,2,4,8} → +15/4; rounds 1,2
	// fold {1,2} → +3/2 each. All exact in float64.
	want := 5 + 15.0/4 + 1.5 + 1.5
	if got := resumed.state[0].Data[0]; got != want {
		t.Fatalf("state = %v, want %v", got, want)
	}
	tr := resumed.Trace()
	if len(tr) != 3 || tr[1].Sampled != 2 || tr[1].Responded != 2 {
		t.Fatalf("trace = %+v", tr)
	}
}

// TestRecoverTooFewRejoin: a resumed session still enforces MinClients.
func TestRecoverTooFewRejoin(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j")
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Rounds: 3, MinClients: 2, Journal: j}
	cfg.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 1 {
			panic(crashSentinel{round})
		}
	}}
	srv := NewServer(newState(5), cfg)
	runUntilCrash(t, srv, recoverTrainers(1, 2, 4))
	j.Close()

	resumed, err := Recover(jpath, newState(5), ServerConfig{Rounds: 3, MinClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSession(t, resumed, recoverTrainers(1))
	if !errors.Is(err, ErrNotEnoughClients) {
		t.Fatalf("err = %v, want ErrNotEnoughClients", err)
	}
}

// TestRecoverRejectsStrangers: a device absent from the journaled
// roster cannot join a resumed session — resumption trusts the roster,
// not a fresh attestation.
func TestRecoverRejectsStrangers(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j")
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Rounds: 3, MinClients: 2, Journal: j}
	cfg.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 1 {
			panic(crashSentinel{round})
		}
	}}
	srv := NewServer(newState(5), cfg)
	runUntilCrash(t, srv, recoverTrainers(1, 2, 4, 8))
	j.Close()

	resumed, err := Recover(jpath, newState(5), ServerConfig{Rounds: 3, MinClients: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "a" and "b" rejoin; "zz" was never admitted. The stranger's
	// client errors on rejection, so drive the session tolerantly.
	trainers := recoverTrainers(1, 2)
	trainers = append(trainers, newTestTrainer("zz", false, 64))
	serverConns := make([]Conn, len(trainers))
	var wg sync.WaitGroup
	for i, tr := range trainers {
		sc, cc := Pipe()
		serverConns[i] = sc
		cl := NewClient(cc, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Run()
		}()
	}
	if _, err := resumed.Run(serverConns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Two rounds of mean(1,2)=1.5 on top of round 0's mean(1,2,4,8)
	// = 15/4; the stranger's 64s never fold. All dyadic, hence exact.
	want := 5 + 15.0/4 + 1.5 + 1.5
	if got := resumed.state[0].Data[0]; got != want {
		t.Fatalf("state = %v, want %v (stranger's update folded?)", got, want)
	}
}

// TestRecoverConfigMismatch: a journal replayed into a server whose
// fingerprint disagrees is rejected rather than silently corrupting.
func TestRecoverConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j")
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Rounds: 3, MinClients: 2, SampleSeed: 11, Journal: j}
	cfg.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 1 {
			panic(crashSentinel{round})
		}
	}}
	srv := NewServer(newState(5), cfg)
	runUntilCrash(t, srv, recoverTrainers(1, 2))
	j.Close()

	bad := []ServerConfig{
		{Rounds: 3, MinClients: 2, SampleSeed: 12},               // wrong seed
		{Rounds: 9, MinClients: 2, SampleSeed: 11},               // wrong horizon
		{Rounds: 3, MinClients: 2, SampleSeed: 11, SecAgg: true}, // wrong mode
	}
	for i, cfg := range bad {
		if _, err := Recover(jpath, newState(5), cfg); !errors.Is(err, ErrJournalMismatch) {
			t.Fatalf("config %d: err = %v, want ErrJournalMismatch", i, err)
		}
	}
	if _, err := Recover(jpath, newState(5), ServerConfig{Rounds: 3, MinClients: 2, SampleSeed: 11}); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
}

// TestResumeBringsSessionLive: Resume leaves the session exactly as live
// as Open does. Inside the first resumed round /healthz reports the
// session open, the rejoined members as its roster (the dead
// placeholders of members that stayed away are not on it) and the
// resumed round; and that round's wire bytes exclude the re-handshake.
func TestResumeBringsSessionLive(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	j, err := journal.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Rounds: 3, MinClients: 2, Journal: j}
	cfg.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 1 {
			panic(crashSentinel{round})
		}
	}}
	runUntilCrash(t, NewServer(newState(5), cfg), recoverTrainers(1, 2, 4, 8))
	j.Close()

	j2, err := journal.Append(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var resumed *Server
	var first obs.Health
	cfg2 := ServerConfig{Rounds: 3, MinClients: 2, Journal: j2, Metrics: obs.NewRegistry()}
	cfg2.Hooks = Hooks{RoundStarted: func(round int, _ []string) {
		if round == 1 {
			first = resumed.Health()
		}
	}}
	resumed, err = Recover(jpath, newState(5), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.NextRound(); got != 1 {
		t.Fatalf("NextRound = %d, want 1", got)
	}
	// Only "a" and "b" rejoin; "c" and "d" stay dead placeholders.
	if _, err := runSession(t, resumed, recoverTrainers(1, 2)); err != nil {
		t.Fatal(err)
	}
	if !first.Open || first.Roster != 2 || first.Round != 1 {
		t.Fatalf("health inside the first resumed round = open=%v roster=%d round=%d, want open=true roster=2 round=1",
			first.Open, first.Roster, first.Round)
	}
	// A session of the same two devices that never crashed moves the
	// same frames in its round 1; only a round metered from before the
	// re-handshake could differ.
	whole := NewServer(newState(5), ServerConfig{Rounds: 3, MinClients: 2, Metrics: obs.NewRegistry()})
	if _, err := runSession(t, whole, recoverTrainers(1, 2)); err != nil {
		t.Fatal(err)
	}
	got, want := resumed.Trace()[1], whole.Trace()[1]
	if got.BytesUp == 0 || got.BytesUp != want.BytesUp || got.BytesDown != want.BytesDown {
		t.Fatalf("first resumed round moved %d up / %d down, want %d / %d: the re-handshake was metered into it",
			got.BytesUp, got.BytesDown, want.BytesUp, want.BytesDown)
	}
}

// TestRunFailsOnJournalError: a journal append that fails — an I/O
// error, or a record too large to replay (journal.ErrRecordTooLarge) —
// sticks in Journal.Err, and the session that wrote it fails with it
// instead of running on without durability: the synchronous rounds and
// the async pacing both. The journal here is closed before the session
// opens, so its first append fails.
func TestRunFailsOnJournalError(t *testing.T) {
	for _, async := range []bool{false, true} {
		j, err := journal.Create(filepath.Join(t.TempDir(), "closed.journal"))
		if err != nil {
			t.Fatal(err)
		}
		_ = j.Close()
		cfg := ServerConfig{Rounds: 2, MinClients: 2, Journal: j}
		cfg.Async = AsyncConfig{Enabled: async, GoalUpdates: 2}
		srv := NewServer(newState(0, 0), cfg)
		conns := make([]Conn, 2)
		var wg sync.WaitGroup
		for i, tr := range recoverTrainers(1, 2) {
			sc, cc := Pipe()
			conns[i] = sc
			cl := NewClient(cc, tr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = cl.Run() // an aborted session ends the clients too
			}()
		}
		_, err = srv.Run(conns)
		wg.Wait()
		if j.Err() == nil || !errors.Is(err, j.Err()) {
			t.Errorf("async %v: Run = %v, want the journal's error %v", async, err, j.Err())
		}
	}
}
