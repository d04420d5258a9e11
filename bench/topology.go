package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// proc is one serving child process.
type proc struct {
	name    string
	url     string
	pid     int
	process *os.Process
	log     *os.File
	spawned time.Time
	// exited closes once the process has been waited for.
	exited chan struct{}
	// ready is how long after spawning the process first answered
	// /readyz 200 (for the gate: with every replica admitted).
	ready time.Duration
}

// topology is the set of processes one round serves from. front is the
// process clients talk to: the only serve, or the gate.
type topology struct {
	serves []*proc
	gate   *proc
	front  *proc
}

func (t *topology) all() []*proc {
	if t.gate == nil {
		return t.serves
	}
	return append(append([]*proc(nil), t.serves...), t.gate)
}

// freeAddr reserves a loopback port long enough to learn its number.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts bin with args, logging to dir/name.log. The child gets
// SIGKILL if the benchmark dies first, so no server outlives a crashed
// run.
func spawn(dir, bin, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, url: "http://" + addr, log: log, spawned: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p.process, p.pid = cmd.Process, cmd.Process.Pid
	go func() {
		cmd.Wait()
		log.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop asks the process to drain (SIGTERM), kills it if it has not
// exited within 5 s, and waits for it either way. os.Process refuses to
// signal a process it has already waited for, so a recycled pid is safe.
func (p *proc) stop() {
	p.process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.process.Kill()
		<-p.exited
	}
}

func (t *topology) stop() {
	// The gate goes first so it never probes a replica that is gone.
	if t.gate != nil {
		t.gate.stop()
	}
	for _, p := range t.serves {
		p.stop()
	}
}

// ctlClient carries readiness polls, scrapes and reloads, apart from the
// load connections.
var ctlClient = &http.Client{Timeout: 10 * time.Second}

// awaitReady polls /readyz every 2 ms until it answers 200 and ok
// accepts the body, recording the time since spawn.
func (p *proc) awaitReady(ctx context.Context, ok func(body []byte) bool) error {
	deadline := p.spawned.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := ctlClient.Get(p.url + "/readyz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				p.ready = time.Since(p.spawned)
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready (see %s)", p.name, p.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready after 30s (see %s)", p.name, p.log.Name())
}

// startTopology spawns the workload's processes from a model file and
// returns once every one is ready, with the set-up time: from the first
// spawn until the front answers /readyz 200 (on the fleet, with both
// replicas admitted). On error every process started so far is stopped.
func startTopology(ctx context.Context, w *workload, bin, dir, model string) (t *topology, setup time.Duration, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.stop()
			t = nil
		}
	}()
	args := []string{"-model", model, "-quiet"}
	if w.cacheEntries > 0 {
		args = append(args, "-cache-entries", fmt.Sprint(w.cacheEntries))
	}
	replicas := 1
	if w.fleet {
		replicas = 2
	}
	for i := 0; i < replicas; i++ {
		p, err := spawn(dir, filepath.Join(bin, "napel-serve"), fmt.Sprintf("serve-%d", i+1), args...)
		if err != nil {
			return t, 0, err
		}
		t.serves = append(t.serves, p)
	}
	first := t.serves[0].spawned
	for _, p := range t.serves {
		if err := p.awaitReady(ctx, nil); err != nil {
			return t, 0, err
		}
	}
	t.front = t.serves[0]
	if w.fleet {
		urls := make([]string, len(t.serves))
		for i, p := range t.serves {
			urls[i] = p.url
		}
		t.gate, err = spawn(dir, filepath.Join(bin, "napel-gate"), "gate", "-replicas", strings.Join(urls, ","))
		if err != nil {
			return t, 0, err
		}
		err = t.gate.awaitReady(ctx, func(body []byte) bool {
			var st struct {
				ReplicasReady int `json:"replicas_ready"`
			}
			return json.Unmarshal(body, &st) == nil && st.ReplicasReady == len(urls)
		})
		if err != nil {
			return t, 0, err
		}
		t.front = t.gate
	}
	return t, time.Since(first), nil
}
