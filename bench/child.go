package main

// Child process lifecycle: building ucq-serve, starting engine children on
// a free port, waiting until they are ready, and making sure that no exit
// path of the benchmark — normal, failure, signal or panic — leaves a
// child or a temporary directory behind.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// cleanups holds what must be undone if the process ends early.
var cleanups struct {
	mu   sync.Mutex
	next int
	fns  map[int]func()
}

// onExit registers fn to run if the benchmark exits before done is called.
func onExit(fn func()) (done func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = make(map[int]func())
	}
	id := cleanups.next
	cleanups.next++
	cleanups.fns[id] = fn
	return func() {
		cleanups.mu.Lock()
		delete(cleanups.fns, id)
		cleanups.mu.Unlock()
	}
}

// runCleanups undoes everything still registered. It is what signal, panic
// and failure paths call before the process ends.
func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// repoRoot finds the module root (the directory with go.mod) above the
// working directory: the checkout root under `go run ./bench`, one level up
// under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory; run from the repository checkout")
		}
		dir = parent
	}
}

// outDir is bench/out in the checkout: the server binary, traces and
// temporary data directories all live there, and .gitignore names it.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

var serverBuild struct {
	once sync.Once
	path string
	err  error
}

// buildServer compiles ./cmd/ucq-serve into bench/out once per process.
// Compiling is not part of any workload's set-up time.
func buildServer() (string, error) {
	serverBuild.once.Do(func() {
		root, err := repoRoot()
		if err != nil {
			serverBuild.err = err
			return
		}
		out, err := outDir()
		if err != nil {
			serverBuild.err = err
			return
		}
		// go build leaves an up-to-date binary alone, so later runs in the
		// same checkout skip the link.
		serverBuild.path = filepath.Join(out, "ucq-serve")
		cmd := exec.Command("go", "build", "-o", serverBuild.path, "./cmd/ucq-serve")
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			serverBuild.err = fmt.Errorf("building ucq-serve: %w\n%s", err, msg)
		}
	})
	return serverBuild.path, serverBuild.err
}

// child is a running engine process.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait returned
	done   func()        // unregisters the exit hook
	tmpDir string
}

// startChild starts cmd as an engine child that dies with the benchmark.
func startChild(cmd *exec.Cmd, tmpDir string) (*child, error) {
	// If the benchmark is killed outright, the kernel takes the child down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{}), tmpDir: tmpDir}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState
		close(c.exited)
	}()
	c.done = onExit(func() { c.stop(0) })
	return c, nil
}

// stop asks the child to exit (SIGTERM, then SIGKILL after grace), waits
// until it has and removes its temporary directory. Stopping a child that
// already exited is harmless.
func (c *child) stop(grace time.Duration) {
	defer c.done()
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	if c.tmpDir != "" {
		_ = os.RemoveAll(c.tmpDir)
	}
}

// serverChild is a ucq-serve process and the address it listens on.
type serverChild struct {
	*child
	base string // http://127.0.0.1:port
}

// startServer starts ucq-serve on a free loopback port and waits for
// /healthz. The port is picked by binding port 0 and closing the listener,
// so another process can take it before the server binds; the server then
// exits at once and the pick is retried.
func startServer(ctx context.Context, durable bool) (*serverChild, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("picking a port: %w", err)
		}
		addr := l.Addr().String()
		l.Close()

		args := []string{"-addr", addr}
		tmp := ""
		if durable {
			out, err := outDir()
			if err != nil {
				return nil, err
			}
			if tmp, err = os.MkdirTemp(out, fmt.Sprintf("data-%d-", os.Getpid())); err != nil {
				return nil, err
			}
			args = append(args, "-data-dir", tmp)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		c, err := startChild(cmd, tmp)
		if err != nil {
			if tmp != "" {
				_ = os.RemoveAll(tmp)
			}
			return nil, fmt.Errorf("starting ucq-serve: %w", err)
		}
		s := &serverChild{child: c, base: "http://" + addr}
		if lastErr = s.waitHealthy(ctx); lastErr == nil {
			return s, nil
		}
		c.stop(0)
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("ucq-serve did not come up: %w", lastErr)
}

// waitHealthy polls /healthz until it answers, the child exits or 10 s
// pass.
func (s *serverChild) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("exited before it was healthy: %v", s.cmd.ProcessState)
		case <-ctx.Done():
			return fmt.Errorf("waiting for /healthz: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// runnerChild is this binary re-executed as a library-workload runner.
type runnerChild struct {
	*child
	stdin  *os.File
	out    *os.File
	stdout *bufio.Reader // over out
}

// startRunner starts the runner and waits until its set-up is done.
func startRunner(cfg runnerConfig) (*runnerChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	encoded, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	// Plain pipes rather than cmd.StdoutPipe: Wait closes those when the
	// child exits, which could discard a report not yet read.
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), runnerEnv+"="+string(encoded))
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, os.Stderr
	c, err := startChild(cmd, "")
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, fmt.Errorf("starting runner: %w", err)
	}
	r := &runnerChild{child: c, stdin: inW, out: outR, stdout: bufio.NewReader(outR)}
	line, err := r.stdout.ReadString('\n')
	if err != nil || line != "ready\n" {
		r.stop()
		return nil, fmt.Errorf("runner failed during set-up (said %q): %v", line, err)
	}
	return r, nil
}

// measure tells the runner which windows to run and reads its report.
func (r *runnerChild) measure(w windows) (*windowReport, error) {
	if err := json.NewEncoder(r.stdin).Encode(w); err != nil {
		return nil, fmt.Errorf("starting runner windows: %w", err)
	}
	var rep windowReport
	if err := json.NewDecoder(r.stdout).Decode(&rep); err != nil {
		return nil, fmt.Errorf("reading runner report: %w", err)
	}
	return &rep, nil
}

// stop closes the runner's stdin, which ends a runner that is not
// measuring, and waits for it.
func (r *runnerChild) stop() {
	_ = r.stdin.Close()
	defer r.out.Close()
	r.child.stop(5 * time.Second)
}
