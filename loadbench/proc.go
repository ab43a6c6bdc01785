package main

import (
	"bytes"
	"errors"
	"fmt"
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

// node is one running ccserved process.
type node struct {
	id   string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	log  *os.File
}

// live tracks every process this program started, so any exit path —
// success, failure, watchdog or signal — can reap them all.
var live struct {
	sync.Mutex
	nodes []*node
}

// freePorts reserves n distinct loopback ports. The listeners are held
// until all n are chosen so the same port is never handed out twice.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startNode launches ccserved on port with the given extra flags; its
// stderr goes to dir/<id>.log. It returns once /healthz answers 200.
func startNode(bin, dir, id string, port int, args []string) (*node, error) {
	logf, err := os.Create(filepath.Join(dir, id+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should loadbench itself be killed, the kernel kills its nodes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ccserved %s: %w", id, err)
	}
	n := &node{id: id, base: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(n.done)
	}()
	live.Lock()
	live.nodes = append(live.nodes, n)
	live.Unlock()
	if err := n.waitReady(20 * time.Second); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// waitReady polls /healthz until it answers 200 or the budget runs out.
func (n *node) waitReady(budget time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(budget)
	for {
		select {
		case <-n.done:
			return fmt.Errorf("ccserved %s exited during start-up (see %s)", n.id, n.log.Name())
		default:
		}
		resp, err := hc.Get(n.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ccserved %s not ready after %v", n.id, budget)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the process and waits until it has exited. Data
// directories are per set-up, so no graceful drain is needed.
func (n *node) stop() {
	select {
	case <-n.done:
	default:
		n.cmd.Process.Signal(syscall.SIGKILL)
		<-n.done
	}
	n.log.Close()
	live.Lock()
	for i, m := range live.nodes {
		if m == n {
			live.nodes = append(live.nodes[:i], live.nodes[i+1:]...)
			break
		}
	}
	live.Unlock()
}

// reapAll stops every process still running.
func reapAll() {
	live.Lock()
	nodes := append([]*node(nil), live.nodes...)
	live.Unlock()
	for _, n := range nodes {
		n.stop()
	}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the user+system CPU time of the process from
// /proc/<pid>/stat (all threads included).
func (n *node) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3 (state).
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads the node's resident-set high-water mark in bytes.
func (n *node) peakRSS() (int64, error) { return vmHWM(n.cmd.Process.Pid) }

// vmHWM reads VmHWM, the resident-set high-water mark of a process, in
// bytes.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches and parses the node's /metrics.
func (n *node) scrape(hc *http.Client) (metricSet, error) {
	resp, err := hc.Get(n.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics on %s: %s", n.id, resp.Status)
	}
	return parseMetrics(resp.Body)
}
