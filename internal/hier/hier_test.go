package hier

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// constTrainer is a TEE-less trainer answering every round with a
// constant additive update (dyadic, so aggregation is exact).
type constTrainer struct {
	id       string
	delta    float64
	examples int
	failOn   int // report a training failure from this round on; -1 never
}

func (t *constTrainer) DeviceID() string { return t.id }
func (t *constTrainer) HasTEE() bool     { return false }
func (t *constTrainer) NumExamples() int { return t.examples }
func (t *constTrainer) Attest([]byte) (tz.Quote, error) {
	return tz.Quote{}, errors.New("no TEE")
}
func (t *constTrainer) OpenChannel([]byte) ([]byte, error) {
	return nil, errors.New("no TEE")
}
func (t *constTrainer) TrainRound(round int, plain []*tensor.Tensor, sealed, plan []byte) ([]*tensor.Tensor, []byte, error) {
	if t.failOn >= 0 && round >= t.failOn {
		return nil, nil, fmt.Errorf("injected failure (round %d)", round)
	}
	upd := make([]*tensor.Tensor, len(plain))
	for i, p := range plain {
		upd[i] = tensor.Full(t.delta, p.Shape...)
	}
	return upd, nil, nil
}

func testModel() []*tensor.Tensor {
	return []*tensor.Tensor{tensor.New(2, 3), tensor.New(4)}
}

// dyadicDelta gives client i an exact dyadic update value.
func dyadicDelta(i int) float64 { return float64(i%13-6) / 16 }

// runFlat runs a flat session over n clients and returns the final
// model and trace.
func runFlat(t *testing.T, n, rounds int, secAgg bool) ([]*tensor.Tensor, []fl.RoundStats) {
	t.Helper()
	state := testModel()
	conns := make([]fl.Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		server, client := fl.Pipe()
		conns[i] = server
		tr := &constTrainer{id: fmt.Sprintf("dev-%03d", i), delta: dyadicDelta(i), examples: 1 + i%4, failOn: -1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := fl.NewClient(client, tr)
			_ = c.Run()
		}()
	}
	srv := fl.NewServer(state, fl.ServerConfig{Rounds: rounds, SecAgg: secAgg})
	if _, err := srv.Run(conns); err != nil {
		t.Fatalf("flat session: %v", err)
	}
	wg.Wait()
	return state, srv.Trace()
}

// runHier runs the same fleet through shards edges and returns the
// root's final model and trace.
func runHier(t *testing.T, n, shards, rounds int, secAgg bool) ([]*tensor.Tensor, []fl.RoundStats) {
	t.Helper()
	state := testModel()
	edgeConns := make([]fl.Conn, shards)
	var fleet sync.WaitGroup
	for s := 0; s < shards; s++ {
		rootSide, edgeSide := fl.Pipe()
		edgeConns[s] = rootSide
		// Contiguous partition, same device order as the flat run.
		lo, hi := s*n/shards, (s+1)*n/shards
		clientConns := make([]fl.Conn, 0, hi-lo)
		for i := lo; i < hi; i++ {
			server, client := fl.Pipe()
			clientConns = append(clientConns, server)
			tr := &constTrainer{id: fmt.Sprintf("dev-%03d", i), delta: dyadicDelta(i), examples: 1 + i%4, failOn: -1}
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				c := fl.NewClient(client, tr)
				_ = c.Run()
			}()
		}
		edge := NewEdge(testModel(), EdgeConfig{Name: fmt.Sprintf("edge-%d", s), MaxCodec: wire.CodecQ8})
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			if err := edge.Run(edgeSide, clientConns); err != nil {
				t.Errorf("edge: %v", err)
			}
		}()
	}
	root := NewRoot(state, RootConfig{Rounds: rounds, MinShards: shards, SecAgg: secAgg})
	if _, err := root.Run(edgeConns); err != nil {
		t.Fatalf("hier session: %v", err)
	}
	fleet.Wait()
	return state, root.Trace()
}

func assertSameModel(t *testing.T, label string, a, b []*tensor.Tensor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: tensor counts differ", label)
	}
	for i := range a {
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				t.Fatalf("%s: models differ at tensor %d elem %d: %v != %v",
					label, i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
}

// TestHierPlainMatchesFlat: the two-tier plain aggregate — weighted
// FedAvg over contiguous shards — is bit-identical to the flat session
// over the same fleet, round accounting included.
func TestHierPlainMatchesFlat(t *testing.T) {
	flat, flatTrace := runFlat(t, 12, 3, false)
	hier, hierTrace := runHier(t, 12, 3, 3, false)
	assertSameModel(t, "plain", flat, hier)
	if len(hierTrace) != len(flatTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(hierTrace), len(flatTrace))
	}
	for r := range hierTrace {
		h, f := hierTrace[r], flatTrace[r]
		if h.Shards != 3 {
			t.Fatalf("round %d folded %d shards, want 3", r, h.Shards)
		}
		if h.Sampled != f.Sampled || h.Responded != f.Responded || h.WeightTotal != f.WeightTotal {
			t.Fatalf("round %d accounting diverged: hier %+v vs flat %+v", r, h, f)
		}
		if h.UpdateNorm != f.UpdateNorm {
			t.Fatalf("round %d update norm diverged: %v vs %v", r, h.UpdateNorm, f.UpdateNorm)
		}
	}
}

// TestHierMaskedMatchesFlat: shard-scoped pairwise masking composes —
// each shard's masks cancel within the shard, the ring partials add at
// the root, and the dequantised aggregate equals flat secure
// aggregation (and flat plaintext) bit for bit.
func TestHierMaskedMatchesFlat(t *testing.T) {
	flat, _ := runFlat(t, 12, 3, false)
	flatMasked, _ := runFlat(t, 12, 3, true)
	hierMasked, trace := runHier(t, 12, 4, 3, true)
	assertSameModel(t, "flat masked vs flat plain", flat, flatMasked)
	assertSameModel(t, "hier masked vs flat plain", flat, hierMasked)
	for r, st := range trace {
		if st.Shards != 4 || st.Responded != 12 {
			t.Fatalf("round %d stats = %+v", r, st)
		}
	}
}

// TestHierShardFailureDegrades: a shard whose clients all fail keeps
// reporting empty partials; the root's round degrades to the healthy
// shards instead of failing the session.
func TestHierShardFailureDegrades(t *testing.T) {
	const shards, perShard, rounds = 3, 4, 3
	state := testModel()
	edgeConns := make([]fl.Conn, shards)
	var fleet sync.WaitGroup
	for s := 0; s < shards; s++ {
		rootSide, edgeSide := fl.Pipe()
		edgeConns[s] = rootSide
		clientConns := make([]fl.Conn, 0, perShard)
		for i := 0; i < perShard; i++ {
			server, client := fl.Pipe()
			clientConns = append(clientConns, server)
			failOn := -1
			if s == 2 {
				failOn = 1 // the whole shard fails from round 1 on
			}
			tr := &constTrainer{id: fmt.Sprintf("s%d-dev-%d", s, i), delta: 0.25, failOn: failOn}
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				_ = fl.NewClient(client, tr).Run()
			}()
		}
		edge := NewEdge(testModel(), EdgeConfig{Name: fmt.Sprintf("edge-%d", s)})
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			_ = edge.Run(edgeSide, clientConns)
		}()
	}
	root := NewRoot(state, RootConfig{Rounds: rounds, MinShards: 2})
	if _, err := root.Run(edgeConns); err != nil {
		t.Fatalf("session should degrade, not fail: %v", err)
	}
	fleet.Wait()
	trace := root.Trace()
	if trace[0].Shards != 3 || trace[0].Responded != 12 {
		t.Fatalf("round 0 stats = %+v", trace[0])
	}
	for r := 1; r < rounds; r++ {
		if trace[r].Shards != 2 || trace[r].Responded != 8 {
			t.Fatalf("round %d stats = %+v, want 2 shards / 8 responders", r, trace[r])
		}
	}
	// Round 1 additionally records the failed shard's quarantines.
	if trace[1].Quarantined != perShard {
		t.Fatalf("round 1 quarantined %d, want %d", trace[1].Quarantined, perShard)
	}
}

// TestHierEdgeLossTolerated: an edge that dies mid-session is dropped;
// the root finishes on the surviving shards.
func TestHierEdgeLossTolerated(t *testing.T) {
	const shards = 3
	state := testModel()
	edgeConns := make([]fl.Conn, shards)
	var fleet sync.WaitGroup
	for s := 0; s < shards; s++ {
		rootSide, edgeSide := fl.Pipe()
		edgeConns[s] = rootSide
		if s == 2 {
			// This "edge" enrols, answers round 0, then vanishes.
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				defer edgeSide.Close()
				msg, err := edgeSide.Recv()
				if err != nil {
					return
				}
				ch := msg.(*fl.Challenge)
				_ = edgeSide.Send(&fl.Attest{DeviceID: "edge-flaky", Codec: ch.Codec})
				m, err := edgeSide.Recv()
				if err != nil {
					return
				}
				down := m.(*fl.ShardDown)
				sum := make([]*tensor.Tensor, len(down.Model))
				for i, p := range down.Model {
					sum[i] = tensor.Full(0.5, p.Shape...)
				}
				_ = edgeSide.Send(&fl.PartialUp{Round: down.Round, Sum: sum, Weight: 1, Count: 1, Sampled: 1})
				// ...and dies before round 1.
			}()
			continue
		}
		clientConns := make([]fl.Conn, 0, 2)
		for i := 0; i < 2; i++ {
			server, client := fl.Pipe()
			clientConns = append(clientConns, server)
			tr := &constTrainer{id: fmt.Sprintf("s%d-dev-%d", s, i), delta: 0.25, failOn: -1}
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				_ = fl.NewClient(client, tr).Run()
			}()
		}
		edge := NewEdge(testModel(), EdgeConfig{Name: fmt.Sprintf("edge-%d", s)})
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			_ = edge.Run(edgeSide, clientConns)
		}()
	}
	var dropped []string
	root := NewRoot(state, RootConfig{Rounds: 3, MinShards: 2, Hooks: Hooks{
		ShardDropped: func(shard string, _ error) { dropped = append(dropped, shard) },
	}})
	if _, err := root.Run(edgeConns); err != nil {
		t.Fatalf("session should tolerate the lost edge: %v", err)
	}
	fleet.Wait()
	if len(dropped) != 1 || dropped[0] != "edge-flaky" {
		t.Fatalf("dropped %v, want [edge-flaky]", dropped)
	}
	trace := root.Trace()
	if trace[0].Shards != 3 {
		t.Fatalf("round 0 folded %d shards, want 3", trace[0].Shards)
	}
	for r := 1; r < 3; r++ {
		if trace[r].Shards != 2 {
			t.Fatalf("round %d folded %d shards, want 2", r, trace[r].Shards)
		}
	}
}

// TestHierEnrolmentRejectsDuplicates: shard identity is unique — a
// second edge claiming an enrolled name is turned away.
func TestHierEnrolmentRejectsDuplicates(t *testing.T) {
	state := testModel()
	mk := func(name string) (fl.Conn, *Edge, []fl.Conn, *sync.WaitGroup) {
		rootSide, edgeSide := fl.Pipe()
		server, client := fl.Pipe()
		tr := &constTrainer{id: name + "-dev", delta: 0.25, failOn: -1}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fl.NewClient(client, tr).Run()
		}()
		edge := NewEdge(testModel(), EdgeConfig{Name: name})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = edge.Run(edgeSide, []fl.Conn{server})
		}()
		return rootSide, edge, []fl.Conn{server}, &wg
	}
	c1, _, _, wg1 := mk("edge-a")
	c2, dup, _, wg2 := mk("edge-a")
	root := NewRoot(state, RootConfig{Rounds: 1, MinShards: 1})
	if _, err := root.Run([]fl.Conn{c1, c2}); err != nil {
		t.Fatalf("session: %v", err)
	}
	wg1.Wait()
	wg2.Wait()
	if dup.RejectedReason == "" {
		t.Fatal("duplicate edge was not rejected")
	}
	trace := root.Trace()
	if trace[0].Shards != 1 {
		t.Fatalf("round 0 folded %d shards, want 1", trace[0].Shards)
	}
}

// TestPartialModeRefusesProtectedSecAgg: a secure-aggregation edge
// given a protecting planner must fail loudly — sealed halves need the
// root's enclave, which a shard partial cannot carry.
func TestPartialModeRefusesProtectedSecAgg(t *testing.T) {
	state := testModel()
	srv := fl.NewServer(state, fl.ServerConfig{
		Partials: true,
		SecAgg:   true,
		Planner:  staticPlan{0: true},
	})
	server, client := fl.Pipe()
	done := make(chan struct{})
	tr := &constTrainer{id: "dev-0", delta: 0.25, failOn: -1}
	go func() {
		defer close(done)
		_ = fl.NewClient(client, tr).Run()
	}()
	if _, err := srv.Open([]fl.Conn{server}); err != nil {
		t.Fatalf("open: %v", err)
	}
	_, err := srv.StepRound(0)
	if !errors.Is(err, fl.ErrPartialProtected) {
		t.Fatalf("StepRound error = %v, want ErrPartialProtected", err)
	}
	srv.Abort()
	<-done
}

// staticPlan protects a fixed flat-index set every round.
type staticPlan map[int]bool

func (p staticPlan) PlanRound(int) (map[int]bool, []byte) { return p, nil }

// TestRootMinReleaseFloor: the fleet-wide secure-aggregation release
// floor holds at the root — a masked round whose composed partials
// fold too few client updates never dequantises.
func TestRootMinReleaseFloor(t *testing.T) {
	state := testModel()
	edgeConns := make([]fl.Conn, 2)
	var fleet sync.WaitGroup
	for s := 0; s < 2; s++ {
		rootSide, edgeSide := fl.Pipe()
		edgeConns[s] = rootSide
		server, client := fl.Pipe()
		tr := &constTrainer{id: fmt.Sprintf("mr-dev-%d", s), delta: 0.25, failOn: -1}
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			_ = fl.NewClient(client, tr).Run()
		}()
		edge := NewEdge(testModel(), EdgeConfig{Name: fmt.Sprintf("edge-%d", s)})
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			_ = edge.Run(edgeSide, []fl.Conn{server})
		}()
	}
	root := NewRoot(state, RootConfig{Rounds: 1, SecAgg: true, MinRelease: 4})
	_, err := root.Run(edgeConns)
	fleet.Wait()
	if !errors.Is(err, secagg.ErrCohortTooSmall) {
		t.Fatalf("err = %v, want ErrCohortTooSmall", err)
	}
	for i := range state {
		for j := range state[i].Data {
			if state[i].Data[j] != 0 {
				t.Fatal("state mutated despite a refused release")
			}
		}
	}
}

// TestRootRejectsNegativeMaskDegree: the degree is 0 (sized per shard
// round) or a pinned positive value; anything else is a configuration
// error before any edge is enrolled.
func TestRootRejectsNegativeMaskDegree(t *testing.T) {
	root := NewRoot(testModel(), RootConfig{SecAgg: true, MaskDegree: -1})
	if _, err := root.Run(nil); !errors.Is(err, fl.ErrBadMaskDegree) {
		t.Fatalf("err = %v, want ErrBadMaskDegree", err)
	}
}
