package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one launched fexserve or fexserver process.
type server struct {
	cmd      *exec.Cmd
	launched time.Time
	httpAddr string // host:port of its HTTP surface (/readyz, /metrics)
	setup    time.Duration

	outMu sync.Mutex
	out   strings.Builder // combined stdout+stderr, for error reports
	done  chan struct{}   // closed once the process has exited and its output drained
}

// freePort reserves an ephemeral loopback port and releases it for the
// server about to be launched.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// launch starts binary with args and returns as soon as the process runs.
func launch(bin string, httpAddr string, args ...string) (*server, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("server binary: %w", err)
	}
	s := &server{httpAddr: httpAddr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	// A benchmark killed mid-run takes its servers with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw := io.Pipe()
	s.cmd.Stdout, s.cmd.Stderr = pw, pw
	s.launched = time.Now()
	if err := s.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			s.outMu.Lock()
			s.out.WriteString(sc.Text() + "\n")
			s.outMu.Unlock()
		}
		io.Copy(io.Discard, pr)
	}()
	go func() {
		// Wait sets ProcessState; closing done afterwards publishes it to
		// every reader that received from done.
		s.cmd.Wait()
		pw.Close()
		<-drained
		close(s.done)
	}()
	return s, nil
}

// output returns what the process printed so far.
func (s *server) output() string {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return s.out.String()
}

// waitReady polls GET /readyz until the first 200 and records the time
// from launch to it as the server's set-up time.
func (s *server) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := s.launched.Add(limit)
	for time.Now().Before(deadline) {
		if s.exited() {
			return fmt.Errorf("server exited before ready:\n%s", s.output())
		}
		resp, err := c.Get("http://" + s.httpAddr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(s.launched)
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v:\n%s", limit, s.output())
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop asks the process to shut down (SIGTERM), waits for it to exit and
// returns its peak resident set size in MiB.
func (s *server) stop() (rssMB float64, err error) {
	if !s.exited() {
		s.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		err = errors.New("server ignored SIGTERM; killed")
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rssMB, err
}

// wait blocks until the process exits on its own (fexserver ends after its
// last round) and reports a non-zero exit as an error.
func (s *server) wait(limit time.Duration) error {
	select {
	case <-s.done:
	case <-time.After(limit):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("server still running after %v; killed:\n%s", limit, s.output())
	}
	if !s.cmd.ProcessState.Success() {
		return fmt.Errorf("server exited with %v:\n%s", s.cmd.ProcessState, s.output())
	}
	return nil
}
