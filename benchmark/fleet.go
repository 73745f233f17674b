package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// lenet5State is the paper's LeNet-5 (Table 4) as a flat state dict.
func lenet5State(seed int64) []*tensor.Tensor {
	return nn.NewLeNet5(rand.New(rand.NewSource(seed)), nn.ActReLU).StateDict()
}

// splitmix64 is the seed mixer behind every generated input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dyadic generates the stub trainers' updates. Client c answers round r
// with factor(c, r)·P, where P is a fixed pattern of multiples of 1/256
// in [−1, 1) and factor a multiple of 1/16 in [−1, 1). Every such update
// and every sum of a cohort of them is exact in float64 (and in the
// secagg fixed-point ring), so plaintext FedAvg has one right answer the
// harness can compute in O(model).
type dyadic struct {
	seed    int64
	pattern []*tensor.Tensor
	span    []float64 // max − min of each pattern tensor (q8 error bound)
}

func newDyadic(seed int64, model []*tensor.Tensor) *dyadic {
	d := &dyadic{seed: seed, pattern: make([]*tensor.Tensor, len(model)), span: make([]float64, len(model))}
	x := splitmix64(uint64(seed) ^ 0x70617474) // "patt"
	for i, t := range model {
		p := tensor.New(t.Shape...)
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := range p.Data {
			x = splitmix64(x)
			v := float64(int64(x%512)-256) / 256
			p.Data[j] = v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		d.pattern[i], d.span[i] = p, hi-lo
	}
	return d
}

// factor16 returns 16·factor(client, round), an integer in [−16, 16).
func (d *dyadic) factor16(client, round int) int64 {
	h := splitmix64(uint64(d.seed)*0x100000001b3 ^ uint64(client)<<20 ^ uint64(round))
	return int64(h%32) - 16
}

// stubTrainer is the benchmark fl.Trainer: no TEE, no training, one
// reused update buffer, so a fleet round measures the protocol, codec
// and aggregation layers rather than the harness.
type stubTrainer struct {
	id  string
	idx int
	d   *dyadic
	buf []*tensor.Tensor
}

func newStubTrainer(id string, idx int, d *dyadic) *stubTrainer {
	t := &stubTrainer{id: id, idx: idx, d: d, buf: make([]*tensor.Tensor, len(d.pattern))}
	for i, p := range d.pattern {
		t.buf[i] = tensor.New(p.Shape...)
	}
	return t
}

func (t *stubTrainer) DeviceID() string { return t.id }
func (t *stubTrainer) HasTEE() bool     { return false }
func (t *stubTrainer) Attest([]byte) (tz.Quote, error) {
	return tz.Quote{}, errors.New("benchmark: stub trainer has no TEE")
}
func (t *stubTrainer) OpenChannel([]byte) ([]byte, error) {
	return nil, errors.New("benchmark: stub trainer has no TEE")
}

func (t *stubTrainer) TrainRound(round int, _ []*tensor.Tensor, _ []byte, _ []byte) ([]*tensor.Tensor, []byte, error) {
	f := float64(t.d.factor16(t.idx, round)) / 16
	for i, p := range t.d.pattern {
		dst := t.buf[i].Data
		for j, v := range p.Data {
			dst[j] = f * v
		}
	}
	return t.buf, nil, nil
}

// fedAvgOracle checks one synchronous round against plaintext FedAvg:
// the state must have moved by mean(factor over folded clients)·P.
type fedAvgOracle struct {
	d    *dyadic
	prev []*tensor.Tensor // state before the round in flight
	tol  []float64        // per tensor

	mu    sync.Mutex // hier edges fold concurrently
	sum16 int64
	count int64
}

// newFedAvgOracle snapshots the initial state. q8 sessions tolerate the
// codec's documented half-step error, range/510 per tensor.
func newFedAvgOracle(d *dyadic, state []*tensor.Tensor, codec wire.Codec) *fedAvgOracle {
	o := &fedAvgOracle{d: d, prev: make([]*tensor.Tensor, len(state)), tol: make([]float64, len(state))}
	for i, t := range state {
		o.prev[i] = t.Clone()
		o.tol[i] = 1e-9
		if codec == wire.CodecQ8 {
			o.tol[i] += d.span[i] / 510
		}
	}
	return o
}

// folded notes that the client's update for the round was delivered.
func (o *fedAvgOracle) folded(client, round int) {
	f := o.d.factor16(client, round)
	o.mu.Lock()
	o.sum16 += f
	o.count++
	o.mu.Unlock()
}

// check compares the state against the expected post-round state, then
// re-arms for the next round (also after a mismatch, so one bad round
// is one failed operation). It returns the number of folded updates.
func (o *fedAvgOracle) check(state []*tensor.Tensor) (int, error) {
	o.mu.Lock()
	sum16, count := o.sum16, o.count
	o.sum16, o.count = 0, 0
	o.mu.Unlock()
	var err error
	if count == 0 {
		err = errors.New("oracle: no update was folded")
	} else {
		mean := float64(sum16) / 16 / float64(count)
		worst, at := 0.0, -1
		for i, t := range state {
			want, p := o.prev[i].Data, o.d.pattern[i].Data
			for j, v := range t.Data {
				diff := math.Abs(v - (want[j] + mean*p[j]))
				if math.IsNaN(diff) || (diff > o.tol[i] && diff > worst) {
					worst, at = diff, i
				}
			}
		}
		if at >= 0 {
			err = fmt.Errorf("oracle: tensor %d is off plaintext FedAvg by %.3g (tolerance %.3g, %d updates)", at, worst, o.tol[at], count)
		}
	}
	for i, t := range state {
		copy(o.prev[i].Data, t.Data)
	}
	return int(count), err
}

// checkFinal verifies that a client holds the server's final model (to
// the session codec's precision).
func checkFinal(final, state []*tensor.Tensor, codec wire.Codec) error {
	if len(final) != len(state) {
		return fmt.Errorf("final model has %d tensors, want %d", len(final), len(state))
	}
	for i, t := range state {
		if final[i] == nil || !final[i].SameShape(t) {
			return fmt.Errorf("final tensor %d is missing or misshapen", i)
		}
		tol := 0.0
		if codec == wire.CodecQ8 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range t.Data {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			tol = (hi-lo)/510 + 1e-12
		}
		for j, v := range t.Data {
			if diff := math.Abs(final[i].Data[j] - v); math.IsNaN(diff) || diff > tol {
				return fmt.Errorf("final tensor %d differs from the server state by %.3g", i, diff)
			}
		}
	}
	return nil
}

// clientTrace carries one client's in-flight round timestamps between
// its conn and trainer wrappers (both run on the client goroutine).
type clientTrace struct {
	tr      *tracer
	session int

	round                int
	recvStart, recvEnd   int64
	trainStart, trainEnd int64
	reconStart           int64
}

// tracedConn is the benchmark's span recorder on a client-side
// connection: fl.client spans from ModelDown received to update sent,
// with recv/train/send children, and secagg.client_recon spans.
type tracedConn struct {
	fl.Conn
	ct *clientTrace
}

func (c *tracedConn) Recv() (fl.Message, error) {
	start := c.ct.tr.now()
	m, err := c.Conn.Recv()
	end := c.ct.tr.now()
	switch msg := m.(type) {
	case *fl.ModelDown:
		c.ct.round, c.ct.recvStart, c.ct.recvEnd = msg.Round, start, end
	case *fl.MaskRecon:
		c.ct.round, c.ct.reconStart = msg.Round, end
	}
	return m, err
}

func (c *tracedConn) Send(m fl.Message) error {
	ct := c.ct
	start := ct.tr.now()
	err := c.Conn.Send(m)
	end := ct.tr.now()
	switch m.(type) {
	case *fl.GradUp, *fl.MaskedUp:
		root, rootStart := ct.tr.rootOf(ct.session, ct.round)
		// A client idles in Recv from the moment its previous update
		// left; only the part inside this round belongs to it.
		recvStart := max(ct.recvStart, rootStart)
		id := ct.tr.add("fl.client", root, ct.session, ct.round, recvStart, end)
		ct.tr.add("fl.client_recv", id, ct.session, ct.round, recvStart, ct.recvEnd)
		ct.tr.add("fl.client_train", id, ct.session, ct.round, ct.trainStart, ct.trainEnd)
		ct.tr.add("fl.client_send", id, ct.session, ct.round, start, end)
	case *fl.MaskShares:
		root, _ := ct.tr.rootOf(ct.session, ct.round)
		ct.tr.add("secagg.client_recon", root, ct.session, ct.round, ct.reconStart, end)
	}
	return err
}

// tracedTrainer times TrainRound for the client's fl.client_train span.
type tracedTrainer struct {
	fl.Trainer
	ct *clientTrace
}

func (t *tracedTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed, plan []byte) ([]*tensor.Tensor, []byte, error) {
	t.ct.trainStart = t.ct.tr.now()
	upd, sealedUpd, err := t.Trainer.TrainRound(round, plain, sealed, plan)
	t.ct.trainEnd = t.ct.tr.now()
	return upd, sealedUpd, err
}

// traceClient wraps a client's connection and trainer with span
// recorders in the traced pass; in the untraced pass both come back
// untouched.
func traceClient(s *session, conn fl.Conn, trainer fl.Trainer) (fl.Conn, fl.Trainer) {
	if s.tr == nil {
		return conn, trainer
	}
	ct := &clientTrace{tr: s.tr, session: s.index}
	return &tracedConn{Conn: conn, ct: ct}, &tracedTrainer{Trainer: trainer, ct: ct}
}

// stragglerPlan names, for every round of a session, the clients whose
// update never reaches the server.
type stragglerPlan [][]int

// newStragglerPlan draws k distinct clients out of n for each round.
func newStragglerPlan(seed int64, rounds, n, k int) stragglerPlan {
	plan := make(stragglerPlan, rounds)
	for r := range plan {
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ 0x73747261 ^ uint64(r)<<32)))) // "stra"
		plan[r] = rng.Perm(n)[:k]
	}
	return plan
}

func (p stragglerPlan) drops(round, client int) bool {
	if round >= len(p) {
		return false
	}
	for _, c := range p[round] {
		if c == client {
			return true
		}
	}
	return false
}

// stragglerConn swallows the masked update of a client that straggles
// in the round: the frame never leaves, the client believes it did and
// waits for the next model — a straggler that costs no wall-clock wait.
type stragglerConn struct {
	fl.Conn
	idx  int
	plan stragglerPlan
}

func (c *stragglerConn) Send(m fl.Message) error {
	if up, ok := m.(*fl.MaskedUp); ok && c.plan.drops(up.Round, c.idx) {
		return nil
	}
	return c.Conn.Send(m)
}

// fleet is a set of real fl.Clients over in-memory pipes, each driven
// by a stub trainer on its own goroutine — closed loop: a client sends
// its next update only after it received the next model.
type fleet struct {
	names       []string
	index       map[string]int
	clients     []*fl.Client
	serverConns []fl.Conn
	errs        []error
	wg          sync.WaitGroup
}

// newFleet builds n clients. wrap, when non-nil, wraps client i's
// (already metered) connection.
func newFleet(s *session, d *dyadic, n int, maxCodec wire.Codec, wrap func(i int, c fl.Conn) fl.Conn) *fleet {
	f := &fleet{
		names: make([]string, n), index: make(map[string]int, n),
		clients: make([]*fl.Client, n), serverConns: make([]fl.Conn, n), errs: make([]error, n),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dev-%05d", i)
		f.names[i], f.index[name] = name, i
		serverConn, clientConn := fl.Pipe()
		fl.SetMeter(clientConn, s.meter)
		if wrap != nil {
			clientConn = wrap(i, clientConn)
		}
		conn, trainer := traceClient(s, clientConn, newStubTrainer(name, i, d))
		c := fl.NewClient(conn, trainer)
		c.MaxCodec = maxCodec
		c.MaskSeed = []byte(fmt.Sprintf("bench-mask-%d-%d", d.seed, i))
		f.clients[i], f.serverConns[i] = c, serverConn
	}
	return f
}

// start launches clients [lo, hi).
func (f *fleet) start(lo, hi int) {
	for i := lo; i < hi; i++ {
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			f.errs[i] = f.clients[i].Run()
		}(i)
	}
}

// finish waits for every client and checks that each ended cleanly
// holding the final model.
func (f *fleet) finish(state []*tensor.Tensor, codec wire.Codec) error {
	f.wg.Wait()
	for i, c := range f.clients {
		if f.errs[i] != nil {
			return fmt.Errorf("client %s: %w", f.names[i], f.errs[i])
		}
		if c.RejectedReason != "" {
			return fmt.Errorf("client %s rejected: %s", f.names[i], c.RejectedReason)
		}
		if err := checkFinal(c.Final, state, codec); err != nil {
			return fmt.Errorf("client %s: %w", f.names[i], err)
		}
	}
	return nil
}

// abort unblocks a fleet whose server failed before taking the
// connections over.
func (f *fleet) abort() {
	for _, c := range f.serverConns {
		_ = c.Close()
	}
	f.wg.Wait()
}

// roundSpans are the server-side hook timestamps of the round in
// flight, used to cut the fl.round root span into its phases.
type roundSpans struct {
	started, firstFold, lastFold int64
}

// fleetOpts selects the flat synchronous fleet variant. A secAgg fleet
// swallows maxStragglers updates per round.
type fleetOpts struct {
	codec  wire.Codec
	secAgg bool
}

// virtualDeadline is the masked workload's RoundDeadline on the virtual
// clock; its length is irrelevant, it only ever elapses by Advance.
const virtualDeadline = 30 * time.Second

// maxStragglers is the worst-case dropout tolerance ⌊(k−1)/2⌋ of the
// auto-degree mask graph for a cohort of n, capped at the workload's 3.
func maxStragglers(n int) int {
	return min(3, (secagg.DegreeFor(n)-1)/2)
}

// runFleetSync is one session of a flat synchronous fleet workload.
func runFleetSync(s *session, opt fleetOpts) error {
	n := s.cfg.cohort
	state := lenet5State(s.cfg.seed)
	d := newDyadic(s.cfg.seed, state)

	var wrap func(int, fl.Conn) fl.Conn
	stragglers := 0
	if opt.secAgg {
		stragglers = maxStragglers(n)
		plan := newStragglerPlan(s.cfg.seed+int64(s.index), s.rounds(), n, stragglers)
		wrap = func(i int, c fl.Conn) fl.Conn { return &stragglerConn{Conn: c, idx: i, plan: plan} }
	}
	f := newFleet(s, d, n, opt.codec, wrap)
	oracle := newFedAvgOracle(d, state, opt.codec)

	// The deadline driver: once every on-time update has folded only
	// the round's stragglers are outstanding, so the virtual clock may
	// jump past the deadline (as internal/flsim does). No wall-clock
	// wait is ever timed.
	var clk *simclock.Virtual
	outstanding := 0
	var rs roundSpans
	var quarantined error
	cfg := fl.ServerConfig{
		Rounds:     s.rounds(),
		MinClients: n - stragglers,
		Codec:      opt.codec,
		SampleSeed: s.cfg.seed,
		Hooks: fl.Hooks{
			RoundStarted: func(_ int, sampled []string) {
				outstanding = len(sampled) - stragglers
				rs.noteStarted(s.tr)
			},
			UpdateFolded: func(round int, device string) {
				oracle.folded(f.index[device], round)
				rs.noteFold(s.tr)
				if outstanding--; outstanding == 0 && clk != nil {
					clk.Advance(virtualDeadline)
				}
			},
			ClientQuarantined: func(device string, reason error) {
				quarantined = fmt.Errorf("%s quarantined: %w", device, reason)
			},
			ClientProbationed: func(device string, reason error) {
				quarantined = fmt.Errorf("%s on probation: %w", device, reason)
			},
		},
	}
	if opt.secAgg {
		cfg.SecAgg = true
		cfg.MaskDegree = secagg.AutoDegree
		if stragglers > 0 {
			clk = simclock.NewVirtual(time.Unix(0, 0))
			cfg.Clock = clk
			cfg.RoundDeadline = virtualDeadline
		}
	}
	srv := fl.NewServer(state, cfg)
	f.start(0, n)
	openStart := s.tr.now()
	if _, err := srv.Open(f.serverConns); err != nil {
		f.abort()
		return fmt.Errorf("opening session: %w", err)
	}
	s.tr.add("fl.open", 0, s.index, 0, openStart, s.tr.now())

	err := stepRounds(s, srv, &rs, func(r int) (int, error) {
		folded, err := oracle.check(srv.State())
		if err == nil {
			err, quarantined = quarantined, nil
		}
		if opt.secAgg {
			got := srv.Trace()[r].Reconciled
			if err == nil && got != stragglers {
				err = fmt.Errorf("reconciled %d dropped clients, want %d", got, stragglers)
			}
			s.res.observe("secagg.reconciled_per_round", float64(got))
		}
		return folded, err
	})
	if err != nil {
		f.wg.Wait()
		return err
	}
	if err := srv.Close(nil); err != nil {
		return fmt.Errorf("closing session: %w", err)
	}
	return f.finish(srv.State(), opt.codec)
}

// stepRounds drives an open flat session through its warm-up and
// sampled rounds, one StepRound per operation. check is the workload's
// oracle, run between operations; rs is filled by the caller's
// RoundStarted/UpdateFolded hooks and cut into the round's phase spans
// here. A round that errors aborts the session.
func stepRounds(s *session, srv *fl.Server, rs *roundSpans, check func(round int) (folded int, err error)) error {
	for r := 0; r < s.rounds(); r++ {
		if r == warmupOps {
			s.beginSampling()
		}
		root := s.tr.openRoot("fl.round", s.index, r, s.tr.now())
		start := time.Now()
		_, err := srv.StepRound(r)
		took := time.Since(start)
		if s.tr != nil {
			end := s.tr.now()
			begin := end - int64(took)
			s.tr.closeRoot(root, end)
			s.tr.add("fl.sample", root, s.index, r, begin, rs.started)
			s.tr.add("fl.first_fold", root, s.index, r, rs.started, rs.firstFold)
			s.tr.add("fl.collect", root, s.index, r, rs.firstFold, rs.lastFold)
			s.tr.add("fl.close", root, s.index, r, rs.lastFold, end)
		}
		if err != nil {
			if r >= warmupOps {
				s.record(took, 0, err)
			}
			srv.Abort()
			return fmt.Errorf("round %d: %w", r, err)
		}
		folded, err := check(r)
		if r >= warmupOps {
			s.record(took, folded, err)
		} else if err != nil {
			s.res.fail(fmt.Errorf("session %d warm-up round %d: %w", s.index, r, err))
		}
	}
	s.endSampling()
	return nil
}

// noteStarted and noteFold are called from the RoundStarted and
// UpdateFolded (or PartialFolded) hooks.
func (rs *roundSpans) noteStarted(tr *tracer) { *rs = roundSpans{started: tr.now()} }

func (rs *roundSpans) noteFold(tr *tracer) {
	if tr == nil {
		return
	}
	rs.lastFold = tr.now()
	if rs.firstFold == 0 {
		rs.firstFold = rs.lastFold
	}
}

// runFleetAsync is one session of the barrier-free workload: RunAsync
// with free-running clients on the real clock. An operation is one
// applied model version, timed between RoundClosed hooks.
func runFleetAsync(s *session) error {
	n := s.cfg.cohort
	goal := max(1, n/4)
	state := lenet5State(s.cfg.seed)
	d := newDyadic(s.cfg.seed, state)
	f := newFleet(s, d, n, wire.CodecF64, nil)

	var last time.Time
	var root int
	var lastPush int64
	folds := 0
	var quarantined error
	cfg := fl.ServerConfig{
		Rounds:     s.rounds(),
		MinClients: 1,
		SampleSeed: s.cfg.seed,
		Async:      fl.AsyncConfig{Enabled: true, GoalUpdates: goal},
		Hooks: fl.Hooks{
			UpdateFolded: func(int, string) { folds++ },
			ClientQuarantined: func(device string, reason error) {
				quarantined = fmt.Errorf("%s quarantined: %w", device, reason)
			},
			RoundClosed: func(st fl.RoundStats) {
				now := time.Now()
				if s.tr != nil {
					t := s.tr.now()
					s.tr.closeRoot(root, t)
					if root = 0; st.Round+1 < s.rounds() {
						root = s.tr.openRoot("fl.version", s.index, st.Round+1, t)
					}
				}
				var err error
				if st.Responded != goal {
					err = fmt.Errorf("version %d applied %d folds, want %d", st.Round, st.Responded, goal)
				} else if quarantined != nil {
					err, quarantined = quarantined, nil
				}
				switch {
				case st.Round >= warmupOps:
					s.record(now.Sub(last), st.Responded, err)
					last = now
				case err != nil:
					s.res.fail(fmt.Errorf("session %d warm-up version %d: %w", s.index, st.Round, err))
				}
				if st.Round == warmupOps-1 {
					s.beginSampling()
					last = time.Now()
				}
				if st.Round == s.rounds()-1 {
					s.endSampling()
				}
			},
		},
	}
	if s.tr != nil {
		cfg.Hooks.UpdatePushed = func(version int, _ string, _ bool) {
			t := s.tr.now()
			if lastPush != 0 {
				s.tr.add("fl.async_push", root, s.index, version, lastPush, t)
			}
			lastPush = t
		}
		root = s.tr.openRoot("fl.version", s.index, 0, s.tr.now())
	}
	srv := fl.NewServer(state, cfg)
	f.start(0, n)
	if _, err := srv.RunAsync(f.serverConns); err != nil {
		f.abort()
		return err
	}
	if want := s.rounds() * goal; folds != want {
		return fmt.Errorf("session folded %d updates, want %d", folds, want)
	}
	for _, t := range srv.State() {
		for _, v := range t.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return errors.New("final model is not finite")
			}
		}
	}
	return f.finish(srv.State(), wire.CodecF64)
}
