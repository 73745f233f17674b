package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/hier"
	"github.com/gradsec/gradsec/internal/wire"
)

// hierEdges is the number of edge aggregators of the hier-f64 workload.
const hierEdges = 8

// runHier is one session of the two-tier workload: a hier.Root over
// hierEdges hier.Edges, each serving an equal shard of the fleet. An
// operation is one root round, timed from one RoundStarted hook to the
// next, so the session runs one extra unsampled round to close the last
// interval. The oracle is flat FedAvg over the whole fleet.
func runHier(s *session) error {
	per := max(1, s.cfg.cohort/hierEdges)
	n := per * hierEdges
	state := lenet5State(s.cfg.seed)
	d := newDyadic(s.cfg.seed, state)
	f := newFleet(s, d, n, wire.CodecF64, nil)
	oracle := newFedAvgOracle(d, state, wire.CodecF64)

	var mu sync.Mutex // edge hooks fire on the edges' goroutines
	var fleetErr error
	noteErr := func(err error) {
		mu.Lock()
		if fleetErr == nil {
			fleetErr = err
		}
		mu.Unlock()
	}

	rootConns := make([]fl.Conn, hierEdges)
	edgeErrs := make([]error, hierEdges)
	var edges sync.WaitGroup
	for e := 0; e < hierEdges; e++ {
		rootSide, edgeSide := fl.Pipe()
		fl.SetMeter(edgeSide, s.meter) // the edge is the root's client
		rootConns[e] = rootSide
		var edgeStart int64
		name := fmt.Sprintf("edge-%02d", e)
		edge := hier.NewEdge(lenet5State(s.cfg.seed), hier.EdgeConfig{
			Name: name,
			Server: fl.ServerConfig{
				MinClients: per,
				SampleSeed: s.cfg.seed,
				Hooks: fl.Hooks{
					RoundStarted: func(int, []string) { edgeStart = s.tr.now() },
					UpdateFolded: func(round int, device string) { oracle.folded(f.index[device], round) },
					RoundClosed: func(st fl.RoundStats) {
						root, _ := s.tr.rootOf(s.index, st.Round)
						s.tr.add("hier.edge_round", root, s.index, st.Round, edgeStart, s.tr.now())
					},
					ClientQuarantined: func(device string, reason error) {
						noteErr(fmt.Errorf("%s quarantined at %s: %w", device, name, reason))
					},
				},
			},
		})
		f.start(e*per, (e+1)*per)
		edges.Add(1)
		go func(e int) {
			defer edges.Done()
			edgeErrs[e] = edge.Run(edgeSide, f.serverConns[e*per:(e+1)*per])
		}(e)
	}

	first, last := warmupOps, warmupOps+s.ops // sampled rounds are [first, last)
	var opStart time.Time
	var oracleTook time.Duration
	var opErr error
	var opFolded int
	var root int
	var rs roundSpans
	cfg := hier.RootConfig{
		Rounds: last + 1,
		Hooks: hier.Hooks{
			RoundStarted: func(round int, _ []string) {
				now := time.Now()
				if round > first && round <= last {
					s.record(now.Sub(opStart)-oracleTook, opFolded, opErr)
				}
				if round == last {
					s.endSampling()
				}
				if round == first {
					s.beginSampling()
					now = time.Now()
				}
				opStart = now
				if s.tr != nil {
					t := s.tr.now()
					s.tr.closeRoot(root, t)
					root = s.tr.openRoot("hier.round", s.index, round, t)
					rs.noteStarted(s.tr)
				}
			},
			PartialFolded: func(int, string) { rs.noteFold(s.tr) },
			ShardDropped: func(shard string, reason error) {
				noteErr(fmt.Errorf("shard %s dropped: %w", shard, reason))
			},
			RoundClosed: func(st fl.RoundStats) {
				if s.tr != nil {
					t := s.tr.now()
					s.tr.add("hier.first_partial", root, s.index, st.Round, rs.started, rs.firstFold)
					s.tr.add("hier.fanin", root, s.index, st.Round, rs.firstFold, rs.lastFold)
					s.tr.add("hier.close", root, s.index, st.Round, rs.lastFold, t)
				}
				// The oracle runs inside the timed interval; its own time
				// is taken out again.
				begin := time.Now()
				opFolded, opErr = oracle.check(state)
				mu.Lock()
				if opErr == nil {
					opErr, fleetErr = fleetErr, nil
				}
				mu.Unlock()
				if opErr == nil && st.Shards != hierEdges {
					opErr = fmt.Errorf("round %d folded %d of %d shards", st.Round, st.Shards, hierEdges)
				}
				if opErr != nil && st.Round < first {
					s.res.fail(fmt.Errorf("session %d warm-up round %d: %w", s.index, st.Round, opErr))
				}
				oracleTook = time.Since(begin)
			},
		},
	}
	rt := hier.NewRoot(state, cfg)
	_, err := rt.Run(rootConns)
	if s.tr != nil {
		s.tr.closeRoot(root, s.tr.now())
	}
	edges.Wait()
	if err != nil {
		f.abort()
		return err
	}
	for e, err := range edgeErrs {
		if err != nil {
			return fmt.Errorf("edge %d: %w", e, err)
		}
	}
	return f.finish(state, wire.CodecF64)
}
