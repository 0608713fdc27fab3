package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// ServerProc is one dphist-server child process.
type ServerProc struct {
	Addr    string
	Started time.Time
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	exited  chan struct{}
	waitErr error
}

// StartServer launches bin with deployment flags only and the dataset
// on stdin. It never passes -seed, -cache-cap, -shards or
// -snapshot-every: the benchmark must keep working when those flags
// change or go away.
func StartServer(bin string, stdin []byte, domain, grid int, dataDir string, epoch time.Duration) (*ServerProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr,
		"-domain", strconv.Itoa(domain),
		"-grid", strconv.Itoa(grid),
		"-budget", strconv.Itoa(Budget),
		"-epoch", epoch.String(),
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	s := &ServerProc{Addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdin = bytes.NewReader(stdin)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.Started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// freeAddr returns a loopback address no socket is bound to right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// Pid is the server's process id.
func (s *ServerProc) Pid() int { return s.cmd.Process.Pid }

// WaitReady polls /healthz until it answers 200.
func (s *ServerProc) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before ready: %v\n%s", s.waitErr, s.stderr.String())
		default:
		}
		resp, err := client.Get("http://" + s.Addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v\n%s", timeout, s.stderr.String())
}

// Stop sends SIGTERM (the server drains and flushes its final
// snapshot) and waits for the exit; after 20 s it kills.
func (s *ServerProc) Stop() error {
	select {
	case <-s.exited:
		return s.exitErr()
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
		return s.exitErr()
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server ignored SIGTERM for 20s; killed\n%s", s.stderr.String())
	}
}

func (s *ServerProc) exitErr() error {
	if s.waitErr != nil {
		return fmt.Errorf("server exit: %v\n%s", s.waitErr, s.stderr.String())
	}
	return nil
}

// Kill ends the server at once and waits for it; for error paths.
func (s *ServerProc) Kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
}
