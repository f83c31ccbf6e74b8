package fedproto

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// dialHello connects to the server, completes the hello handshake with
// model as the client's current weights, and returns the connection plus
// the stamp of the synced model its first update must name as BaseSeq.
func dialHello(t *testing.T, addr string, id, size int, model []LayerPayload) (*Conn, uint64) {
	t.Helper()
	var raw net.Conn
	var err error
	for try := 0; try < 50; try++ {
		raw, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := Wrap(raw)
	if err := c.Send(&Message{Kind: MsgHello, ClientID: id, DataSize: size, Layers: model}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	sync, err := c.Recv()
	if err != nil || sync.Kind != MsgModel {
		t.Fatalf("sync reply: %v %+v", err, sync)
	}
	return c, sync.ModelSeq
}

// TestServerHungClientFailsRound is the regression test for the blocking
// Recv deadlock: a client that goes silent after hello must fail the round
// with a deadline error naming the client, not hang Run() forever.
func TestServerHungClientFailsRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      2,
		Rounds:       1,
		NumLayers:    1,
		RoundTimeout: 250 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	model := []LayerPayload{{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}},
		Data: [][]float64{{0, 0}}}}
	good, seq := dialHello(t, addr, 0, 10, model)
	defer good.Close()
	hung, _ := dialHello(t, addr, 1, 10, model)
	defer hung.Close()

	// The good client ships a round-0 update; the hung client sends nothing.
	up := &Message{Kind: MsgUpdate, ClientID: 0, Round: 0, BaseSeq: seq, Layers: []LayerPayload{{
		Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}},
		Data: [][]float64{{1, 2}}, UpdateNorm: 1,
	}}}
	if err := good.Send(up); err != nil {
		t.Fatalf("update: %v", err)
	}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run() succeeded despite a hung client")
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("want a net timeout error, got %v", err)
		}
		if !strings.Contains(err.Error(), "client 1") {
			t.Fatalf("error does not identify the hung client: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run() still blocked after 5s — deadline not applied")
	}
}

// TestServerSurfacesEveryFailedClient checks that when several clients
// fail in one round, the combined error names each of them.
func TestServerSurfacesEveryFailedClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      3,
		Rounds:       1,
		NumLayers:    1,
		RoundTimeout: 250 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	model := []LayerPayload{{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 1}},
		Data: [][]float64{{0}}}}
	conns := make([]*Conn, 3)
	var seq uint64
	for id := 0; id < 3; id++ {
		var s uint64
		conns[id], s = dialHello(t, addr, id, 5, model)
		defer conns[id].Close()
		if id == 0 {
			seq = s
		}
	}
	// Client 0 sends a well-formed update; clients 1 and 2 both go silent.
	up := &Message{Kind: MsgUpdate, ClientID: 0, Round: 0, BaseSeq: seq, Layers: []LayerPayload{{
		Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 1}},
		Data: [][]float64{{3}}, UpdateNorm: 1,
	}}}
	if err := conns[0].Send(up); err != nil {
		t.Fatalf("update: %v", err)
	}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run() succeeded despite hung clients")
		}
		msg := err.Error()
		for _, want := range []string{"client 1", "client 2"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("combined error missing %q: %v", want, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run() still blocked after 5s")
	}
}
