package main

import (
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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// proc is one running serve process. Its stderr is drained
// continuously (serve logs a line per request, and an unread pipe would
// block it); the tail is kept for error reports.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	logs *tailWriter
	done chan struct{} // closed once cmd.Wait returns
	err  error         // cmd.Wait's result, valid after done
}

// tailWriter keeps the last few KiB written to it.
type tailWriter struct {
	mu  sync.Mutex
	buf []byte
}

const tailKeep = 4 << 10

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailKeep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailKeep:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf
	if len(b) > tailKeep {
		b = b[len(b)-tailKeep:]
	}
	return string(b)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc launches serve with args. The child is killed if this
// process dies (Pdeathsig), so a crashed run leaves no server behind.
func startProc(servePath, name, url string, args []string) (*proc, error) {
	cmd := exec.Command(servePath, args...)
	logs := &tailWriter{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: url, cmd: cmd, logs: logs, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// procCPU is the CPU time consumed so far by a process (all threads,
// live and exited), and the system part of it.
func procCPU(pid int) (total, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(ut+st) * clockTick, time.Duration(st) * clockTick, nil
}

// procHWM is the process's peak resident set (VmHWM) in KiB.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// hostCPU is a /proc/stat snapshot of the aggregate cpu line, in ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("/proc/stat: no aggregate cpu line")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two snapshots.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// servers is the set of serve processes one run drives.
type servers struct {
	procs []*proc
	// entry is the URL the load generator talks to.
	entry string
	dir   string // job stores, removed by stop
}

// launch starts the workload's server process, with a fresh job store
// under dir when the workload has one, and waits until /readyz answers
// ready. It cleans up after itself on failure.
func launch(ctx context.Context, servePath, dir string, w workload) (*servers, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	f := &servers{dir: dir}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	// Without a job store a node serves synchronous sweeps only.
	args := []string{"-addr", addr, "-jobs-dir", ""}
	if w.jobs {
		args = []string{"-addr", addr, "-jobs-dir", filepath.Join(dir, "jobs"),
			"-checkpoint-every", strconv.Itoa(checkpointEvery)}
	}
	p, err := startProc(servePath, "serve", "http://"+addr, args)
	if err != nil {
		return nil, err
	}
	f.procs = append(f.procs, p)
	f.entry = p.url
	if err := waitReady(ctx, &http.Client{Timeout: 2 * time.Second}, p); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

func waitReady(ctx context.Context, client *http.Client, p *proc) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if p.exited() {
			return fmt.Errorf("%s exited during startup: %v\n%s", p.name, p.err, p.logs)
		}
		if ready(ctx, client, p.url) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 20s\n%s", p.name, p.logs)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// ready reports whether the server's /readyz answers 200 with ready
// true.
func ready(ctx context.Context, client *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var rep struct {
		Ready bool `json:"ready"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&rep) == nil && rep.Ready
}

// health is the /healthz cache counters.
type health struct {
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
}

func getHealth(ctx context.Context, url string) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	err = json.Unmarshal(body, &h)
	return h, err
}

// cpu returns the CPU time of all server processes, and the system
// part of it.
func (f *servers) cpu() (total, sys time.Duration, err error) {
	for _, p := range f.procs {
		if p.exited() {
			return 0, 0, fmt.Errorf("%s exited: %v\n%s", p.name, p.err, p.logs)
		}
		t, st, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		total += t
		sys += st
	}
	return total, sys, nil
}

// hwmMB sums the peak resident sets of every server process, in MiB.
func (f *servers) hwmMB() (float64, error) {
	var kb int64
	for _, p := range f.procs {
		v, err := procHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// stop kills and reaps every process and removes the job stores.
func (f *servers) stop() {
	for _, p := range f.procs {
		if !p.exited() {
			p.cmd.Process.Kill()
		}
	}
	for _, p := range f.procs {
		<-p.done
	}
	f.procs = nil
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	// Flush the removed stores' metadata now, so their writeback does
	// not land in the fsyncs of the next setup or run.
	syscall.Sync()
}
