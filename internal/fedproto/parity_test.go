package fedproto

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fexiot/internal/embed"
	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
)

// TestSimulatorMatchesWire is the acceptance pin for the shared Algorithm-1
// round: the same seeded non-i.i.d. federation run through the in-process
// simulator (fed.FexIoT.Run) and through a loopback fedproto server must
// leave every client's parameters bit-identical, under both the lossless
// raw64 wire and q8 deltas — the networked federation computes exactly what
// the simulator computes.
func TestSimulatorMatchesWire(t *testing.T) {
	const nClients, rounds = 4, 3
	enc := embed.NewEncoder(24, 32)
	pool := fusion.MultiHomePool(3, 30, 20, nil)
	b := fusion.NewBuilder(5, enc)
	gs := make([]*graph.Graph, 100)
	for i := range gs {
		gs[i] = b.OfflineSized(pool)
	}
	shards := fed.DirichletSplit(gs, nClients, 1.0, fed.LabelArchetypeClass(5), 11)
	base := gnn.NewGIN(fusion.WordFeatureDim(enc), 12, 8, 100)

	cfg := fed.DefaultConfig(7)
	cfg.Rounds = rounds
	cfg.Train.PairsPerEpoch = 20
	cfg.Train.LR = 0.005
	// A gate that fires on this federation, so clustering is exercised.
	cfg.Eps1, cfg.Eps2 = 0.95, 0.5

	for _, scheme := range []string{codec.Raw64, codec.Q8} {
		t.Run(scheme, func(t *testing.T) {
			simCfg := cfg
			simCfg.Codec = scheme
			sim := fed.NewClients(base, shards, 0.005)
			res := fed.NewFexIoT().Run(sim, simCfg)
			split := false
			for _, r := range res.Rounds {
				split = split || r.NumClusters > 1
			}
			if !split {
				t.Fatalf("no round split (%+v): the parity check would be vacuous", res.Rounds)
			}

			wire := fed.NewClients(base, shards, 0.005)
			runWireFederation(t, wire, cfg, scheme)

			for i := range sim {
				want, got := sim[i].Model.Params().Flatten(), wire[i].Model.Params().Flatten()
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("client %d element %d: wire %v, simulator %v", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// runWireFederation trains clients through a loopback server with every
// client required each round, each client calling LocalTrain with the
// simulator's per-round config.
func runWireFederation(t *testing.T, clients []*fed.Client, cfg fed.Config, scheme string) {
	t.Helper()
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      len(clients),
		Rounds:       cfg.Rounds,
		Eps1:         cfg.Eps1,
		Eps2:         cfg.Eps2,
		NumLayers:    clients[0].Model.Params().NumLayers(),
		Quorum:       1,
		RoundTimeout: time.Minute,
		Codec:        scheme,
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		serverErr <- err
	}()

	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *fed.Client) {
			defer wg.Done()
			var conn *Conn
			for try := 0; try < 100 && conn == nil; try++ {
				if raw, err := net.Dial("tcp", addr); err == nil {
					conn = Wrap(raw)
				} else {
					time.Sleep(10 * time.Millisecond)
				}
			}
			if conn == nil {
				errs[i] = net.ErrClosed
				return
			}
			defer conn.Close()
			errs[i] = RunClientLoop(context.Background(), conn, c.ID, len(c.Train), c.Model.Params(),
				func(round int) map[int]float64 {
					tc := cfg.Train
					tc.Seed = cfg.Seed + int64(round)
					c.LocalTrain(tc)
					return nil
				})
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}
