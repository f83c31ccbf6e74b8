package fed

import (
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

// FexIoT is the paper's dynamic layer-wise clustering-based federated GNN
// aggregation (Algorithm 1). Each round, after local training, the server
// runs ClusterRound over the clients' layer weights and updates.
//
// Communication: layer-wise aggregation enables layer-wise traffic. A
// client uploads a layer only while that layer still changes materially —
// its update norm above StaleFrac times the peak update norm that client
// has ever seen on that layer; converged layers skip synchronisation. This
// self-calibrating staleness rule is the mechanism behind the ~40% cost
// saving of Fig. 7.
type FexIoT struct {
	// StaleFrac ∈ [0,1): a layer upload is skipped once its update norm
	// decays below StaleFrac·peak. Zero disables skipping.
	StaleFrac float64

	peakNorm map[[2]int]float64 // (client, layer) → max observed ‖ΔW_l‖
}

// NewFexIoT returns the algorithm with the default staleness policy.
func NewFexIoT() *FexIoT {
	return &FexIoT{StaleFrac: 0.3, peakNorm: map[[2]int]float64{}}
}

// Name identifies the algorithm.
func (*FexIoT) Name() string { return "FexIoT" }

// Run executes Algorithm 1: each round trains locally, passes the updates
// through the simulated wire codec, and hands every client's layer weights
// and updates to ClusterRound — the same aggregation the networked server
// runs. Staleness and byte accounting stay here; they are not aggregation.
func (f *FexIoT) Run(clients []*Client, cfg Config) *Result {
	res := &Result{}
	sm := newSimMetrics(cfg.Metrics)
	numLayers := clients[0].Model.Params().NumLayers()
	sizes := make([]int, len(clients))
	for i, c := range clients {
		sizes[i] = len(c.Train)
	}
	var leaves [][]int
	cdc := simCodec(cfg.Codec)
	for r := 0; r < cfg.Rounds; r++ {
		sp := obs.StartSpan(sm.roundDur)
		localTrainAll(clients, cfg.roundTrain(r))
		// Wire-codec simulation: what the server aggregates (and the norms,
		// weights and gate below see) is each client's reconstructed update,
		// not the exact local one — mirroring the networked protocol.
		var codecBytes [][]int64 // [layer][client] encoded upload bytes
		if cdc != nil {
			codecBytes = applySimCodec(clients, cdc, numLayers)
		}
		weights := make([][][]float64, len(clients)) // [client][layer]
		updates := make([][][]float64, len(clients))
		var commUp, commDown int64
		for i, c := range clients {
			p, u := c.Model.Params(), c.Update()
			weights[i] = make([][]float64, numLayers)
			updates[i] = make([][]float64, numLayers)
			for l := 0; l < numLayers; l++ {
				weights[i][l] = p.FlattenLayer(l)
				updates[i][l] = u.FlattenLayer(l)
				// Upload accounting: a client transmits a layer while it
				// still moves — at the codec's encoded wire size when one is
				// active. Downloads are always dense: the server's models
				// ship raw64 in the networked protocol too.
				n := mat.Norm2(updates[i][l])
				key := [2]int{i, l}
				if f.peakNorm != nil && n > f.peakNorm[key] {
					f.peakNorm[key] = n
				}
				if f.StaleFrac == 0 || n > f.StaleFrac*f.peakNorm[key] {
					layerBytes := bytesFor(p.LayerElements(l))
					if codecBytes != nil {
						commUp += codecBytes[l][i]
					} else {
						commUp += layerBytes
					}
					commDown += layerBytes
				}
			}
		}
		var aggs [][][]float64
		aggs, leaves = ClusterRound(weights, updates, sizes, cfg, cfg.Aggregator)
		for i, c := range clients {
			for l, v := range aggs[i] {
				c.Model.Params().SetFlattenLayer(l, v)
			}
		}

		res.Comm.UploadBytes += commUp
		res.Comm.DownloadBytes += commDown
		info := RoundInfo{
			Round:       r,
			NumClusters: len(leaves),
			CommBytes:   commUp + commDown,
		}
		res.Rounds = append(res.Rounds, info)
		sp.End()
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	res.FinalClusters = clusterAssignment(len(clients), leaves)
	return res
}

// ClusterRound is one aggregation round of Algorithm 1, shared by the
// in-process simulator and the networked fedproto server. weights and
// updates are indexed [client][layer]: each client's flattened layer
// weights and its update ΔW on that layer; sizes are the clients' data
// sizes for FedAvg weighting. Walking the layers bottom-up, every current
// cluster evaluates the Eq. (3) gate on its members' layer updates; when
// it fires, the cluster bipartitions by cosine similarity of the layer
// weights and each half aggregates the layer separately (lines 13-17),
// otherwise the whole cluster aggregates it (line 19). The recursion then
// descends into the next layer within each cluster, so upper layers are
// clustered at a finer grain than lower ones — deep-model similarity
// decreases from the bottom up.
//
// It returns each client's aggregated layers, indexed like weights
// (members of one cluster share a layer's slice, which callers must treat
// as read-only), and the leaf clusters in depth-first order. agg combines
// a cluster's layer weights; nil selects the FedAvg weighted mean.
func ClusterRound(weights, updates [][][]float64, sizes []int, cfg Config,
	agg Aggregator) ([][][]float64, [][]int) {
	agg = aggregatorOr(agg)
	all := indexRange(len(weights))
	out := make([][][]float64, len(weights))
	for i := range out {
		out[i] = make([][]float64, len(weights[i]))
	}
	var leaves [][]int
	var recurse func(l int, cluster []int)
	recurse = func(l int, cluster []int) {
		if l >= len(out[cluster[0]]) {
			leaves = append(leaves, cluster)
			return
		}
		parts := [][]int{cluster}
		if len(cluster) >= 2 && gate(column(updates, cluster, l), QuorumWeights(sizes, cluster), cfg) {
			if c1, c2 := binaryCluster(column(weights, all, l), cluster); len(c2) > 0 {
				parts = [][]int{c1, c2}
			}
		}
		for _, part := range parts {
			v := agg.Aggregate(column(weights, part, l), QuorumWeights(sizes, part))
			for _, i := range part {
				out[i][l] = v
			}
		}
		for _, part := range parts {
			recurse(l+1, part)
		}
	}
	if len(weights) > 0 {
		recurse(0, all)
	}
	return out, leaves
}

// column gathers layer l of the idx clients' [client][layer] vectors.
func column(vecs [][][]float64, idx []int, l int) [][]float64 {
	out := make([][]float64, len(idx))
	for k, i := range idx {
		out[k] = vecs[i][l]
	}
	return out
}

// simCodec resolves a Config.Codec name to a lossy codec instance, or nil
// when the dense raw64 path (including unknown names) applies.
func simCodec(name string) codec.Codec {
	cdc, err := codec.New(name)
	if err != nil || cdc.Name() == codec.Raw64 {
		return nil
	}
	return cdc
}

// applySimCodec pushes one round's updates through the wire codec: every
// client's params become prev + Decode(Encode(params − prev)) in place, so
// aggregation sees exactly what the networked server would reconstruct. It
// returns the encoded upload wire size per [layer][client] for the
// communication accounting.
func applySimCodec(clients []*Client, cdc codec.Codec, numLayers int) [][]int64 {
	bytes := make([][]int64, numLayers)
	for l := range bytes {
		bytes[l] = make([]int64, len(clients))
	}
	mat.ParallelFor(len(clients), func(i int) {
		c := clients[i]
		if c.prev == nil {
			return
		}
		p := c.Model.Params()
		for l := 0; l < numLayers; l++ {
			for _, name := range p.LayerNames(l) {
				cur := p.Get(name).Data()
				prev := c.prev.Get(name).Data()
				d := make([]float64, len(cur))
				for j := range cur {
					d[j] = cur[j] - prev[j]
				}
				t := cdc.Encode(d)
				bytes[l][i] += t.WireBytes()
				dec, err := cdc.Decode(t)
				if err != nil {
					// Self-encoded frames only fail on non-finite updates;
					// leave those params as-is for the gate to handle.
					continue
				}
				for j := range cur {
					cur[j] = prev[j] + dec[j]
				}
			}
		}
	})
	return bytes
}
