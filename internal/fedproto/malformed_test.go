package fedproto

import (
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goodLayers builds a well-formed two-layer update payload.
func goodLayers() []LayerPayload {
	return []LayerPayload{
		{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: [][]float64{{1, 2}}},
		{Layer: 1, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: [][]float64{{3, 4}}},
	}
}

func TestValidateUpdate(t *testing.T) {
	ok := &Message{Kind: MsgUpdate, Layers: goodLayers()}
	if err := ValidateUpdate(ok, 2); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}

	cases := []struct {
		name string
		msg  *Message
	}{
		{"wrong kind", &Message{Kind: MsgHello, Layers: goodLayers()}},
		{"short layers", &Message{Kind: MsgUpdate, Layers: goodLayers()[:1]}},
		{"extra layers", &Message{Kind: MsgUpdate, Layers: append(goodLayers(),
			LayerPayload{Layer: 2, Names: []string{"w"}, Shapes: [][2]int{{1, 1}}, Data: [][]float64{{9}}})},
		},
		{"shuffled layer ids", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			goodLayers()[1], goodLayers()[0]}},
		},
		{"names/data arity mismatch", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w", "b"}, Shapes: [][2]int{{1, 2}}, Data: [][]float64{{1, 2}}},
			goodLayers()[1]}},
		},
		{"data shorter than shape", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: [][]float64{{1}}},
			goodLayers()[1]}},
		},
		{"negative shape", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{-1, -2}}, Data: [][]float64{{1, 2}}},
			goodLayers()[1]}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateUpdate(tc.msg, 2)
			if !errors.Is(err, ErrMalformedUpdate) {
				t.Fatalf("want ErrMalformedUpdate, got %v", err)
			}
		})
	}
}

// TestCheckShapesPinning verifies the cross-client layout check: the first
// valid update pins the federation's tensor layout and later updates that
// disagree are rejected by name instead of panicking the aggregation.
func TestCheckShapesPinning(t *testing.T) {
	s := NewServer(ServerConfig{NumLayers: 2})
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: goodLayers()}); err != nil {
		t.Fatalf("pinning update rejected: %v", err)
	}
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: goodLayers()}); err != nil {
		t.Fatalf("matching update rejected: %v", err)
	}
	odd := goodLayers()
	odd[1].Shapes = [][2]int{{1, 3}}
	odd[1].Data = [][]float64{{3, 4, 5}}
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: odd}); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("mismatched shapes: want ErrMalformedUpdate, got %v", err)
	}
	renamed := goodLayers()
	renamed[0].Names = []string{"v"}
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: renamed}); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("mismatched names: want ErrMalformedUpdate, got %v", err)
	}
}

// TestServerRejectsBadUpdates runs a live server against clients that ship
// malformed round updates. Every variant must surface as a named
// ErrMalformedUpdate (joined with the quorum failure) — never a panic —
// and the error must identify the offending client.
func TestServerRejectsBadUpdates(t *testing.T) {
	bad := []struct {
		name string
		msg  *Message
	}{
		{"short layers", &Message{Kind: MsgUpdate, ClientID: 1, Layers: goodLayers()[:1]}},
		{"shuffled layer ids", &Message{Kind: MsgUpdate, ClientID: 1,
			Layers: []LayerPayload{goodLayers()[1], goodLayers()[0]}}},
		{"wrong kind", &Message{Kind: MsgModel, ClientID: 1, Layers: goodLayers()}},
		{"data/shape mismatch", &Message{Kind: MsgUpdate, ClientID: 1, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: [][]float64{{1, 2, 3}}},
			goodLayers()[1]}}},
		{"pinned-shape mismatch", &Message{Kind: MsgUpdate, ClientID: 1, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 3}}, Data: [][]float64{{1, 2, 3}}},
			goodLayers()[1]}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			srv := NewServer(ServerConfig{
				Addr: addr, Clients: 2, Rounds: 1, NumLayers: 2,
				Quorum: 1, RoundTimeout: 500 * time.Millisecond,
			})
			done := make(chan error, 1)
			go func() {
				_, err := srv.Run(context.Background())
				done <- err
			}()

			good, goodSeq := dialHello(t, addr, 0, 10, goodLayers())
			defer good.Close()
			badConn, badSeq := dialHello(t, addr, 1, 10, goodLayers())
			defer badConn.Close()

			if err := good.Send(&Message{Kind: MsgUpdate, ClientID: 0, Round: 0,
				BaseSeq: goodSeq, Layers: goodLayers()}); err != nil {
				t.Fatalf("good update: %v", err)
			}
			tc.msg.BaseSeq = badSeq
			if err := badConn.Send(tc.msg); err != nil {
				t.Fatalf("bad update: %v", err)
			}

			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Run() succeeded despite a malformed update failing quorum")
				}
				if !errors.Is(err, ErrMalformedUpdate) {
					t.Fatalf("want ErrMalformedUpdate in chain, got %v", err)
				}
				if !errors.Is(err, ErrQuorumLost) {
					t.Fatalf("want ErrQuorumLost in chain, got %v", err)
				}
				if !strings.Contains(err.Error(), "client 1") && !strings.Contains(err.Error(), "client 0") {
					t.Fatalf("error does not identify a client: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run() still blocked after 5s")
			}
		})
	}
}

// TestHelloModelRefusedNotAdopted pins the round-0 model's admission: the
// first admitted hello's weights become the federation's model, so a hello
// whose model is non-finite or wrongly shaped is dropped like a non-hello
// and never adopted, and later hellos are held to the pinned shapes.
func TestHelloModelRefusedNotAdopted(t *testing.T) {
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{Addr: addr, Clients: 2, Rounds: 1, NumLayers: 2,
		RoundTimeout: 5 * time.Second})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	defer func() {
		srv.Stop()
		<-done
	}()

	nan := goodLayers()
	nan[1].Data[0][1] = math.NaN()
	short := goodLayers()[:1]
	wide := goodLayers()
	wide[0] = LayerPayload{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 3}},
		Data: [][]float64{{1, 2, 3}}}
	refused := func(name string, model []LayerPayload) {
		t.Helper()
		var raw net.Conn
		var err error
		for try := 0; try < 50; try++ {
			if raw, err = net.Dial("tcp", addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c := Wrap(raw)
		defer c.Close()
		c.SetOpDeadline(5 * time.Second)
		if err := c.Send(&Message{Kind: MsgHello, ClientID: 9, DataSize: 10, Layers: model}); err != nil {
			t.Fatalf("%s hello: %v", name, err)
		}
		if m, err := c.Recv(); err == nil {
			t.Fatalf("%s hello admitted: sync %+v", name, m)
		}
	}
	refused("non-finite", nan)
	refused("short", short)
	refused("no model", nil)

	// The first valid hello becomes the round-0 model, exactly as sent.
	good, _ := dialHello(t, addr, 0, 10, goodLayers())
	defer good.Close()
	srv.mu.Lock()
	global := srv.global
	srv.mu.Unlock()
	if !reflect.DeepEqual(global, goodLayers()) {
		t.Fatalf("round-0 model %+v, want the first valid hello's %+v", global, goodLayers())
	}
	// Its shapes are pinned: a hello of another layout is refused too.
	refused("pinned-shape mismatch", wide)
}
