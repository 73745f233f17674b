package hier

import (
	"fmt"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
)

// runTree runs the 16-client fleet of runFlat through a 3-level tree:
// root → 2 mid-tier edges → 2 leaf edges each → 4 clients each. A
// mid-tier edge is an ordinary Edge whose shard server has edge peers;
// nothing else distinguishes it.
func runTree(t *testing.T, rounds int, secAgg bool) ([]*tensor.Tensor, []fl.RoundStats) {
	t.Helper()
	const mids, leavesPerMid, clientsPerLeaf = 2, 2, 4
	state := testModel()
	var fleet sync.WaitGroup
	runEdge := func(edge *Edge, upstream fl.Conn, peers []fl.Conn) {
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			if err := edge.Run(upstream, peers); err != nil {
				t.Errorf("edge: %v", err)
			}
		}()
	}
	next := 0 // contiguous partition, same device order as the flat run
	midConns := make([]fl.Conn, mids)
	for m := 0; m < mids; m++ {
		leafConns := make([]fl.Conn, leavesPerMid)
		for l := 0; l < leavesPerMid; l++ {
			clientConns := make([]fl.Conn, clientsPerLeaf)
			for c := range clientConns {
				server, client := fl.Pipe()
				clientConns[c] = server
				tr := &constTrainer{id: fmt.Sprintf("dev-%03d", next), delta: dyadicDelta(next), examples: 1 + next%4, failOn: -1}
				next++
				fleet.Add(1)
				go func() {
					defer fleet.Done()
					_ = fl.NewClient(client, tr).Run()
				}()
			}
			midSide, leafSide := fl.Pipe()
			leafConns[l] = midSide
			runEdge(NewEdge(testModel(), EdgeConfig{Name: fmt.Sprintf("leaf-%d-%d", m, l)}), leafSide, clientConns)
		}
		rootSide, midSide := fl.Pipe()
		midConns[m] = rootSide
		mid := NewEdge(testModel(), EdgeConfig{
			Name:   fmt.Sprintf("mid-%d", m),
			Server: fl.ServerConfig{EdgePeers: true},
		})
		runEdge(mid, midSide, leafConns)
	}
	root := NewRoot(state, RootConfig{Rounds: rounds, SecAgg: secAgg})
	if n, err := root.Run(midConns); err != nil || n != mids {
		t.Fatalf("tree session: %d mid-tier edges enrolled, err %v", n, err)
	}
	fleet.Wait()
	return state, root.Trace()
}

// TestEdgeOfEdgesMatchesFlat is the test of the abstraction: because
// the root is just a round engine whose peers are edges, an Edge whose
// shard engine has edge peers of its own gives a 3-level tree with no
// further code — and exact partial sums compose across both levels, so
// the tree's model is bit-identical to a flat server's over the same 16
// clients, plain and masked, with the fleet's accounting intact.
func TestEdgeOfEdgesMatchesFlat(t *testing.T) {
	const clients, rounds = 16, 3
	flat, flatTrace := runFlat(t, clients, rounds, false)
	for _, secAgg := range []bool{false, true} {
		name := "plain"
		if secAgg {
			name = "masked"
		}
		t.Run(name, func(t *testing.T) {
			tree, trace := runTree(t, rounds, secAgg)
			assertSameModel(t, name+" tree vs flat", flat, tree)
			if len(trace) != rounds {
				t.Fatalf("root trace has %d rounds, want %d", len(trace), rounds)
			}
			for r, st := range trace {
				f := flatTrace[r]
				if st.Shards != 2 || st.Sampled != clients || st.Responded != clients {
					t.Fatalf("round %d stats = %+v, want 2 shards over %d sampled and responding clients", r, st, clients)
				}
				if st.WeightTotal != f.WeightTotal || st.UpdateNorm != f.UpdateNorm {
					t.Fatalf("round %d diverged from flat: tree %+v vs flat %+v", r, st, f)
				}
			}
		})
	}
}
