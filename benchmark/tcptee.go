package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// tcpDevices is the tcp-tee workload's fleet size. It is the paper's
// small-cohort deployment and does not scale with config.cohort.
const tcpDevices = 4

// teeDevice is one simulated TrustZone client, built the way
// cmd/flclient builds it.
type teeDevice struct {
	name    string
	dev     *tz.Device
	trainer *core.SecureTrainer
	client  *fl.Client
	err     error
}

func newTEEDevice(name string, seed int64, verifier *tz.Verifier) (*teeDevice, error) {
	gen := dataset.NewGenerator(rand.New(rand.NewSource(seed)), 10, 1, 16, 16, 0.2)
	data := gen.FixedSet(rand.New(rand.NewSource(seed+1)), 6)
	batches := rand.New(rand.NewSource(seed + 2))
	dev := tz.NewDevice(name)
	net := nn.NewLeNet5Mini(rand.New(rand.NewSource(7)), nn.ActReLU)
	plan, err := core.NewStaticPlan(0) // replaced by the server's plan each round
	if err != nil {
		return nil, err
	}
	trainer, err := core.NewSecureTrainer(dev, net, plan, core.TrainerConfig{
		Iterations: 3, LR: 0.05,
		Batch: func(int, int) (*tensor.Tensor, *tensor.Tensor) { return data.RandomBatch(batches, 12) },
	})
	if err != nil {
		return nil, err
	}
	verifier.RegisterDevice(dev.Identity().ID(), dev.Identity().RootKey())
	m, err := dev.Measurement(trainer.TAUUID())
	if err != nil {
		return nil, err
	}
	verifier.AllowMeasurement(m)
	return &teeDevice{name: name, dev: dev, trainer: trainer}, nil
}

// runTCPTee is one session of the paper's deployment over loopback TCP:
// attested selection, sealed weights down and sealed updates up on the
// static plan {L2, L5}, real secure training on every device, and a
// journaled server. It is the only workload where every layer runs.
func runTCPTee(s *session) error {
	if err := os.MkdirAll(s.cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.cfg.outDir, "tcp-tee-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "session.journal")
	jnl, err := journal.Create(logPath)
	if err != nil {
		return err
	}
	defer jnl.Close()

	// The global model cmd/flserver serves; never mutated, the server
	// trains a StateDict copy.
	global := nn.NewLeNet5Mini(rand.New(rand.NewSource(7)), nn.ActReLU)
	plan, err := core.NewStaticPlan(1, 4) // L2 and L5, as flserver -protect 2,5
	if err != nil {
		return err
	}
	planner := core.NewPlanner(plan, global, func(ls []int) map[int]bool {
		return core.FlatIndicesForLayers(global, ls)
	})

	l, err := fl.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()

	verifier := tz.NewVerifier()
	devices := make([]*teeDevice, tcpDevices)
	conns := make([]fl.Conn, 0, tcpDevices)
	var wg sync.WaitGroup
	abort := func() {
		for _, c := range conns {
			_ = c.Close()
		}
		wg.Wait()
	}
	for i := range devices {
		d, err := newTEEDevice(fmt.Sprintf("pi-%02d", i), s.cfg.seed+int64(100*i), verifier)
		if err != nil {
			abort()
			return err
		}
		devices[i] = d
		conn, err := fl.Dial(l.Addr())
		if err != nil {
			abort()
			return err
		}
		fl.SetMeter(conn, s.meter)
		conn, trainer := traceClient(s, conn, core.NewGradSecClient(d.name, d.trainer))
		d.client = fl.NewClient(conn, trainer)
		d.client.MaxCodec = wire.CodecQ8 // flclient's default cap; the server offers f64
		wg.Add(1)
		go func(d *teeDevice) {
			defer wg.Done()
			d.err = d.client.Run()
		}(d)
		accepted, err := l.Accept()
		if err != nil {
			abort()
			return err
		}
		conns = append(conns, accepted)
	}

	var rs roundSpans
	var quarantined error
	folded := 0
	state := global.StateDict()
	cfg := fl.ServerConfig{
		Rounds:     s.rounds(),
		Planner:    planner,
		MinClients: tcpDevices,
		SampleSeed: s.cfg.seed,
		RequireTEE: true,
		Verifier:   verifier,
		IOTimeout:  30 * time.Second,
		Journal:    jnl,
		Hooks: fl.Hooks{
			RoundStarted: func(int, []string) { rs.noteStarted(s.tr) },
			UpdateFolded: func(int, string) { folded++; rs.noteFold(s.tr) },
			ClientQuarantined: func(device string, reason error) {
				quarantined = fmt.Errorf("%s quarantined: %w", device, reason)
			},
		},
	}
	srv := fl.NewServer(state, cfg)
	openStart := s.tr.now()
	if _, err := srv.Open(conns); err != nil {
		abort()
		return fmt.Errorf("opening session: %w", err)
	}
	s.tr.add("fl.open", 0, s.index, 0, openStart, s.tr.now())

	smc0, journal0 := int64(0), int64(0)
	err = stepRounds(s, srv, &rs, func(r int) (int, error) {
		if r == warmupOps-1 {
			// The SMC and journal-size baselines of the sampled window.
			smc0 = totalSMC(devices)
			if st, err := os.Stat(logPath); err == nil {
				journal0 = st.Size()
			}
		}
		n := folded
		folded = 0
		err := quarantined
		quarantined = nil
		if err == nil && n != tcpDevices {
			err = fmt.Errorf("round %d folded %d of %d devices", r, n, tcpDevices)
		}
		return n, err
	})
	if err != nil {
		wg.Wait()
		return err
	}
	s.res.observe("smc_per_cycle", float64(totalSMC(devices)-smc0)/float64(s.ops*tcpDevices))
	if st, err := os.Stat(logPath); err == nil {
		s.res.observe("journal.bytes_per_round", float64(st.Size()-journal0)/float64(s.ops))
	}
	if err := srv.Close(nil); err != nil {
		return err
	}
	wg.Wait()
	for _, d := range devices {
		if d.err != nil {
			return fmt.Errorf("%s: %w", d.name, d.err)
		}
		if d.client.Rounds != s.rounds() {
			return fmt.Errorf("%s completed %d of %d rounds", d.name, d.client.Rounds, s.rounds())
		}
		if err := checkFinal(d.client.Final, srv.State(), wire.CodecF64); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}

	// The journal oracle: replaying the session log onto the initial
	// model must commit every round and reproduce the served model.
	if err := jnl.Close(); err != nil {
		return fmt.Errorf("closing journal: %w", err)
	}
	replayStart := s.tr.now()
	cfg.Journal, cfg.Hooks = nil, fl.Hooks{}
	recovered, err := fl.Recover(logPath, global.StateDict(), cfg)
	s.tr.add("journal.replay", 0, s.index, 0, replayStart, s.tr.now())
	if err != nil {
		return fmt.Errorf("replaying the session journal: %w", err)
	}
	if recovered.NextRound() != s.rounds() {
		return fmt.Errorf("journal commits %d rounds, session ran %d", recovered.NextRound(), s.rounds())
	}
	return checkFinal(recovered.State(), srv.State(), wire.CodecF64)
}

func totalSMC(devices []*teeDevice) int64 {
	var n int64
	for _, d := range devices {
		n += d.dev.SMCCount()
	}
	return n
}
