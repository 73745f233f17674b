package hier

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
)

// reuseTrainer answers every round with one update buffer it owns, so a
// round's allocations are the engine's alone. It reads the model it is
// handed first: one decoded from a frame already released — poisoned in
// this package's tests — reads NaN.
type reuseTrainer struct {
	constTrainer
	upd []*tensor.Tensor
	t   *testing.T
}

func (tr *reuseTrainer) TrainRound(round int, plain []*tensor.Tensor, _, _ []byte) ([]*tensor.Tensor, []byte, error) {
	for i, p := range plain {
		if slices.ContainsFunc(p.Data, math.IsNaN) {
			tr.t.Errorf("%s round %d: model tensor %d holds NaN: it was read from a released frame", tr.id, round, i)
		}
	}
	return tr.upd, nil, nil
}

// TestWarmTwoTierRoundAllocatesNoModel pins the round buffers both tiers
// keep for the session: a root over 4 edges of 8 clients on the LeNet-5
// state, over pipes. Each tier folds into its one aggregator and closes
// the round in it, each edge decodes the root's ShardDown views into its
// state and the root folds the PartialUp sums from their frames, and a
// round whose peers all answered hands its broadcast frame back for the
// next. A warm round therefore allocates less than one model per tier.
// (With a fresh aggregator, mean, broadcast frame and decoded model or
// partial per tier and round it allocated about 19 models.) The final
// model is checked too: every client sends 0.125 everywhere, so each
// round adds exactly 0.125 to every parameter.
func TestWarmTwoTierRoundAllocatesNoModel(t *testing.T) {
	const edges, perEdge, warm, measured, tiers = 4, 8, 2, 4, 2
	lenet := func() []*tensor.Tensor { return nn.NewLeNet5(rand.New(rand.NewSource(1)), nn.ActReLU).StateDict() }
	upd := lenet()
	modelBytes := 0
	for i, u := range upd {
		upd[i] = tensor.Full(0.125, u.Shape...)
		modelBytes += 8 * u.Size()
	}
	rootConns := make([]fl.Conn, edges)
	var fleet sync.WaitGroup
	for e := 0; e < edges; e++ {
		rootSide, edgeSide := fl.Pipe()
		rootConns[e] = rootSide
		clientConns := make([]fl.Conn, perEdge)
		for i := range clientConns {
			server, client := fl.Pipe()
			clientConns[i] = server
			c := fl.NewClient(client, &reuseTrainer{constTrainer{id: fmt.Sprintf("e%d-dev-%d", e, i)}, upd, t})
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				if err := c.Run(); err != nil {
					t.Error(err)
				}
			}()
		}
		edge := NewEdge(lenet(), EdgeConfig{Name: fmt.Sprintf("edge-%d", e), Server: fl.ServerConfig{MinClients: perEdge}})
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			if err := edge.Run(edgeSide, clientConns); err != nil {
				t.Errorf("edge: %v", err)
			}
		}()
	}
	var closed []uint64
	state := lenet()
	want := lenet()
	root := NewRoot(state, RootConfig{Rounds: warm + measured, MinShards: edges, Hooks: Hooks{
		RoundClosed: func(fl.RoundStats) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			closed = append(closed, ms.TotalAlloc)
		},
	}})
	if _, err := root.Run(rootConns); err != nil {
		t.Fatal(err)
	}
	fleet.Wait()
	perRound := float64(closed[len(closed)-1]-closed[warm-1]) / measured
	bound := float64(tiers * modelBytes)
	t.Logf("%.3f MB per round, bound %.2f MB (%.2f× the bound)", perRound/1e6, bound/1e6, perRound/bound)
	if perRound >= bound {
		t.Errorf("a warm two-tier round allocated %.2f MB, want < %.2f MB (one model per tier): a round buffer is not kept for the session", perRound/1e6, bound/1e6)
	}
	for i, w := range want {
		for j := range w.Data {
			for r := 0; r < warm+measured; r++ {
				w.Data[j] += 0.125
			}
		}
		if !slices.Equal(w.Data, state[i].Data) {
			t.Fatalf("tensor %d of the final model is not the initial one plus %d × 0.125", i, warm+measured)
		}
	}
}
