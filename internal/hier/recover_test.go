package hier

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
)

// TestRecoveredEdgeRejoinsMaskedRoot: an edge whose config leaves
// SecAggScaleBits at its zero value journals its shard under a masked
// root. Its uplink is severed once round 0 has closed, so the root's
// round 1 fails and both tiers stop; recovered from their journals they
// finish round 2. The recovered edge must take the root's challenge —
// its journal was written at the resolved precision, which is what the
// challenge announces — and the two applied rounds must land on the
// flat masked aggregate of the same fleet.
func TestRecoveredEdgeRejoinsMaskedRoot(t *testing.T) {
	const n, rounds = 4, 3
	dir := t.TempDir()
	rootPath, edgePath := filepath.Join(dir, "root.journal"), filepath.Join(dir, "edge.journal")
	// One process generation: a masked root over one edge of n clients.
	generation := func(root *Root, edge *Edge, rootSide, edgeSide fl.Conn) (rootErr, edgeErr error) {
		var fleet sync.WaitGroup
		clients := make([]fl.Conn, n)
		for i := range clients {
			server, client := fl.Pipe()
			clients[i] = server
			tr := &constTrainer{id: fmt.Sprintf("dev-%03d", i), delta: dyadicDelta(i), examples: 1 + i%4, failOn: -1}
			fleet.Add(1)
			go func() {
				defer fleet.Done()
				_ = fl.NewClient(client, tr).Run()
			}()
		}
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			edgeErr = edge.Run(edgeSide, clients)
			for _, c := range clients {
				_ = c.Close() // an edge that never opened its shard left them open
			}
		}()
		_, rootErr = root.Run([]fl.Conn{rootSide})
		fleet.Wait()
		return rootErr, edgeErr
	}
	edgeCfg := func(j *journal.Journal) EdgeConfig {
		return EdgeConfig{Name: "edge-0", Server: fl.ServerConfig{Rounds: rounds, SecAgg: true, Journal: j}}
	}

	rj, err := journal.Create(rootPath)
	if err != nil {
		t.Fatal(err)
	}
	ej, err := journal.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	rootSide, edgeSide := fl.Pipe()
	doomed := NewRoot(testModel(), RootConfig{Rounds: rounds, SecAgg: true, Journal: rj, Hooks: Hooks{
		RoundClosed: func(st fl.RoundStats) {
			if st.Round == 0 {
				_ = rootSide.Close()
			}
		},
	}})
	if rootErr, _ := generation(doomed, NewEdge(testModel(), edgeCfg(ej)), rootSide, edgeSide); rootErr == nil {
		t.Fatal("the severed session completed")
	}
	rj.Close()
	ej.Close()

	rj, err = journal.Append(rootPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	ej, err = journal.Append(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	defer ej.Close()
	state := testModel()
	srv, err := fl.Recover(rootPath, state, RootConfig{Rounds: rounds, SecAgg: true, Journal: rj}.serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := &Root{srv}
	rootSide, edgeSide = fl.Pipe()
	rootErr, edgeErr := generation(root, RecoverEdge(edgePath, testModel(), edgeCfg(ej)), rootSide, edgeSide)
	if rootErr != nil || edgeErr != nil {
		t.Fatalf("recovered session: root %v, edge %v", rootErr, edgeErr)
	}
	flat, _ := runFlat(t, n, rounds-1, true)
	assertSameModel(t, "recovered hier vs flat masked", flat, state)
	if trace := root.Trace(); len(trace) != rounds || trace[1].Shards != 0 || trace[2].Shards != 1 {
		t.Fatalf("trace = %+v, want round 1 failed and round 2 folded by the recovered shard", trace)
	}
}
