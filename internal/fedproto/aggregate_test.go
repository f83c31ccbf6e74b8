package fedproto

import (
	"reflect"
	"testing"

	"fexiot/internal/fed"
)

// mkLayer builds a single-tensor layer payload around one weight vector.
func mkLayer(layer int, data []float64) LayerPayload {
	return LayerPayload{Layer: layer, Names: []string{"w"},
		Shapes: [][2]int{{1, len(data)}}, Data: [][]float64{append([]float64(nil), data...)}}
}

// oneLayer lifts per-client vectors into ClusterRound's [client][layer]
// shape for a single-layer model.
func oneLayer(vecs ...[]float64) [][][]float64 {
	out := make([][][]float64, len(vecs))
	for i, v := range vecs {
		out[i] = [][]float64{v}
	}
	return out
}

// TestAggregateGateRegression pins the Eq. (3) clustering decision of the
// round both the simulator and the wire server run, on explicit update
// vectors: the gate reads the members' update norms and the norm of their
// FedAvg-weighted mean update, and the split follows the layer weights.
func TestAggregateGateRegression(t *testing.T) {
	cfg := fed.Config{Eps1: 0.4, Eps2: 0.95}
	sizes := []int{10, 10, 10, 10}
	weights := oneLayer([]float64{1, 0}, []float64{0.9, 0.1}, []float64{-1, 0}, []float64{-0.9, -0.1})

	// Two camps whose updates pull in opposite directions while every
	// member still moves: the weighted mean update nearly cancels, so the
	// gate must fire and the cluster must split camp by camp.
	diverging := oneLayer([]float64{1, 0}, []float64{1, 0.1}, []float64{-1, 0}, []float64{-1, -0.1})
	aggs, leaves := fed.ClusterRound(weights, diverging, sizes, cfg, nil)
	if want := [][]int{{0, 1}, {2, 3}}; !reflect.DeepEqual(leaves, want) {
		t.Fatalf("diverging camps: leaves %v, want %v", leaves, want)
	}
	// Each camp averages only its own members.
	if got := aggs[0][0][0]; got != 0.95 {
		t.Fatalf("camp A mean = %v, want 0.95", got)
	}
	if got := aggs[2][0][0]; got != -0.95 {
		t.Fatalf("camp B mean = %v, want -0.95", got)
	}

	// Aligned updates: everyone moves the same way, the mean update is as
	// long as the members', the gate stays shut and the whole federation
	// averages together — however far apart the weights sit.
	aligned := oneLayer([]float64{1, 0}, []float64{1, 0.01}, []float64{1, 0.02}, []float64{1, 0.03})
	aggs, leaves = fed.ClusterRound(weights, aligned, sizes, cfg, nil)
	if len(leaves) != 1 || len(leaves[0]) != 4 {
		t.Fatalf("aligned updates: leaves %v, want one cluster of 4", leaves)
	}
	for i := 1; i < 4; i++ {
		if !reflect.DeepEqual(aggs[i][0], aggs[0][0]) {
			t.Fatalf("client %d aggregate %v, client 0 %v: want one shared mean", i, aggs[i][0], aggs[0][0])
		}
	}

	// No movement at all (zero updates): the gate must not fire no matter
	// how the weights are arranged.
	still := oneLayer([]float64{0, 0}, []float64{0, 0}, []float64{0, 0}, []float64{0, 0})
	if _, leaves = fed.ClusterRound(weights, still, sizes, cfg, nil); len(leaves) != 1 {
		t.Fatalf("stationary clients: leaves %v, want one cluster", leaves)
	}
}

// TestGlobalMeanWeighting pins the rejoin-replay model: the global mean is
// the size-weighted average over every responder, shared with the
// fed simulator's QuorumWeights rule, and each responder's reply is its
// cluster's aggregate split back into the payload's tensors.
func TestGlobalMeanWeighting(t *testing.T) {
	layers := [][]LayerPayload{
		{mkLayer(0, []float64{0, 0})},
		{mkLayer(0, []float64{4, 8})},
	}
	bases := [][]LayerPayload{
		{mkLayer(0, []float64{0, 0})},
		{mkLayer(0, []float64{0, 0})},
	}
	replies, global := aggregateRound(layers, bases, []int{30, 10},
		fed.Config{Eps1: 0.4, Eps2: 0.95}, fed.MeanAgg{})
	if len(global) != 1 {
		t.Fatalf("global layers %d, want 1", len(global))
	}
	// Weights 0.75/0.25 → 0.25·{4,8} = {1,2}.
	if got := global[0].Data[0]; got[0] != 1 || got[1] != 2 {
		t.Fatalf("global mean %v, want [1 2]", got)
	}
	// One client never moved, so the gate stays shut: both replies carry
	// the same whole-federation aggregate.
	for k, r := range replies {
		if len(r) != 1 || r[0].Names[0] != "w" || r[0].Data[0][0] != 1 || r[0].Data[0][1] != 2 {
			t.Fatalf("reply %d = %+v, want layer 0 tensor w = [1 2]", k, r)
		}
	}
}
