package fed

import (
	"math"

	"fexiot/internal/mat"
)

// --- FedAvg ----------------------------------------------------------------

// FedAvg is classic federated averaging (McMahan et al.): every round each
// client trains locally and the server replaces every model with the
// data-weighted mean.
type FedAvg struct{}

// Name identifies the algorithm.
func (FedAvg) Name() string { return "FedAvg" }

// Run executes federated averaging.
func (FedAvg) Run(clients []*Client, cfg Config) *Result {
	res := &Result{FinalClusters: uniformClusters(len(clients))}
	sm := newSimMetrics(cfg.Metrics)
	all := indexRange(len(clients))
	modelParams := clients[0].Model.Params().NumElements()
	for r := 0; r < cfg.Rounds; r++ {
		localTrainAll(clients, cfg.roundTrain(r))
		avg := clients[0].Model.Params().Clone()
		AggregateParams(aggregatorOr(cfg.Aggregator), avg, paramsOf(clients, all), dataWeights(clients, all))
		for _, c := range clients {
			c.Model.Params().CopyFrom(avg)
		}
		// Full model up and down for every client.
		roundBytes := int64(len(clients)) * bytesFor(modelParams) * 2
		res.Comm.UploadBytes += int64(len(clients)) * bytesFor(modelParams)
		res.Comm.DownloadBytes += int64(len(clients)) * bytesFor(modelParams)
		info := RoundInfo{Round: r, NumClusters: 1, CommBytes: roundBytes}
		res.Rounds = append(res.Rounds, info)
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	return res
}

// --- Isolated clients --------------------------------------------------------

// ClientOnly trains every client locally with no communication (the
// "Client" baseline of Fig. 4).
type ClientOnly struct{}

// Name identifies the algorithm.
func (ClientOnly) Name() string { return "Client" }

// Run trains clients in isolation.
func (ClientOnly) Run(clients []*Client, cfg Config) *Result {
	res := &Result{FinalClusters: isolatedClusters(len(clients))}
	sm := newSimMetrics(cfg.Metrics)
	for r := 0; r < cfg.Rounds; r++ {
		localTrainAll(clients, cfg.roundTrain(r))
		info := RoundInfo{Round: r, NumClusters: len(clients)}
		res.Rounds = append(res.Rounds, info)
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	return res
}

// --- Clustered baselines ------------------------------------------------------

// clusteredFL factors the shared mechanics of FMTL and GCFL+: whole-model
// aggregation within a dynamically refined partition of the clients.
type clusteredFL struct {
	name string
	// signal extracts the vector the algorithm clusters on.
	signal func(c *Client) []float64
}

// FMTL is clustered federated multi-task learning (Sattler et al.): the
// split signal is the latest whole-model weight-update direction (a
// geometric property of the loss surface at the stationary point).
func FMTL() Algorithm {
	return &clusteredFL{
		name:   "FMTL",
		signal: func(c *Client) []float64 { return c.Update().Flatten() },
	}
}

// GCFL is GCFL+ (Xie et al.): clustering on smoothed gradient sequences —
// each client keeps a moving window of updates and clusters on the window
// mean, damping the oscillation of any single round.
func GCFL() Algorithm {
	windows := map[int][][]float64{}
	return &clusteredFL{
		name: "GCFL+",
		signal: func(c *Client) []float64 {
			u := c.Update().Flatten()
			w := append(windows[c.ID], u)
			if len(w) > 3 {
				w = w[len(w)-3:]
			}
			windows[c.ID] = w
			mean := make([]float64, len(u))
			for _, v := range w {
				mat.Axpy(mean, v, 1/float64(len(w)))
			}
			return mean
		},
	}
}

// Name identifies the algorithm.
func (a *clusteredFL) Name() string { return a.name }

// Run executes clustered whole-model FL.
func (a *clusteredFL) Run(clients []*Client, cfg Config) *Result {
	res := &Result{}
	sm := newSimMetrics(cfg.Metrics)
	modelParams := clients[0].Model.Params().NumElements()
	clusters := [][]int{indexRange(len(clients))}
	for r := 0; r < cfg.Rounds; r++ {
		localTrainAll(clients, cfg.roundTrain(r))
		signals := make([][]float64, len(clients))
		for i, c := range clients {
			signals[i] = a.signal(c)
		}
		var next [][]int
		for _, cluster := range clusters {
			if len(cluster) >= 2 && gate(wholeModelUpdates(clients, cluster), dataWeights(clients, cluster), cfg) {
				c1, c2 := binaryCluster(signals, cluster)
				if len(c2) > 0 {
					next = append(next, c1, c2)
					continue
				}
			}
			next = append(next, cluster)
		}
		clusters = next
		for _, cluster := range clusters {
			avg := clients[cluster[0]].Model.Params().Clone()
			AggregateParams(aggregatorOr(cfg.Aggregator), avg, paramsOf(clients, cluster), dataWeights(clients, cluster))
			for _, i := range cluster {
				clients[i].Model.Params().CopyFrom(avg)
			}
		}
		roundBytes := int64(len(clients)) * bytesFor(modelParams) * 2
		res.Comm.UploadBytes += int64(len(clients)) * bytesFor(modelParams)
		res.Comm.DownloadBytes += int64(len(clients)) * bytesFor(modelParams)
		info := RoundInfo{Round: r, NumClusters: len(clusters), CommBytes: roundBytes}
		res.Rounds = append(res.Rounds, info)
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	res.FinalClusters = clusterAssignment(len(clients), clusters)
	return res
}

// --- Shared helpers ------------------------------------------------------------

func indexRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func uniformClusters(n int) []int { return make([]int, n) }

func isolatedClusters(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func clusterAssignment(n int, clusters [][]int) []int {
	out := make([]int, n)
	for cid, cluster := range clusters {
		for _, i := range cluster {
			out[i] = cid
		}
	}
	return out
}

// wholeModelUpdates returns the flattened whole-model update ΔW of every
// cluster member.
func wholeModelUpdates(clients []*Client, cluster []int) [][]float64 {
	out := make([][]float64, len(cluster))
	for k, i := range cluster {
		out[k] = clients[i].Update().Flatten()
	}
	return out
}

// gate applies Eq. (3) to one cluster's updates us, weighted by w: it
// reads each member's update norm and the norm of the weighted mean update.
func gate(us [][]float64, w []float64, cfg Config) bool {
	var mean []float64
	norms := make([]float64, len(us))
	for k, u := range us {
		norms[k] = mat.Norm2(u)
		if mean == nil {
			mean = make([]float64, len(u))
		}
		mat.Axpy(mean, u, w[k])
	}
	return gateFromNorms(norms, mat.Norm2(mean), cfg)
}

// gateFromNorms applies the Eq. (3) gate: the aggregate update is nearly
// stationary (ε1 bound) while at least one client still moves strongly
// (ε2 bound) — the signature of clients pulling in different directions.
// The paper states ε1, ε2 as absolute norms ("related to the size of model
// weights"); to stay calibrated across model sizes and layer widths, this
// implementation interprets them relative to the average individual update
// norm: the gate fires when ‖Σ w_c ΔW_c‖ < ε1·avg‖ΔW_c‖ and
// max‖ΔW_c‖ > ε2·avg‖ΔW_c‖.
func gateFromNorms(norms []float64, meanNorm float64, cfg Config) bool {
	maxNorm, avg := 0.0, 0.0
	for _, n := range norms {
		if n > maxNorm {
			maxNorm = n
		}
		avg += n
	}
	if len(norms) == 0 || avg == 0 {
		return false
	}
	avg /= float64(len(norms))
	return meanNorm < cfg.Eps1*avg && maxNorm > cfg.Eps2*avg
}

// binaryCluster splits cluster members into two groups by cosine
// similarity of their signals: the least similar pair seeds the groups and
// every member joins the nearer seed.
func binaryCluster(signals [][]float64, cluster []int) ([]int, []int) {
	seedA, seedB := cluster[0], cluster[1]
	worst := math.Inf(1)
	for x := 0; x < len(cluster); x++ {
		for y := x + 1; y < len(cluster); y++ {
			s := mat.CosineSimilarity(signals[cluster[x]], signals[cluster[y]])
			if s < worst {
				worst = s
				seedA, seedB = cluster[x], cluster[y]
			}
		}
	}
	var a, b []int
	for _, i := range cluster {
		sa := mat.CosineSimilarity(signals[i], signals[seedA])
		sb := mat.CosineSimilarity(signals[i], signals[seedB])
		if sa >= sb {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	// Singleton clusters degenerate to isolated training and fragment the
	// federation; keep the cluster whole instead.
	if len(a) < 2 || len(b) < 2 {
		return cluster, nil
	}
	return a, b
}
